package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pressio/internal/trace"
)

// getTracez serves one /tracez request from a daemon that holds only the
// given trace store.
func getTracez(t *testing.T, traces *traceStore, query string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	(&Daemon{traces: traces}).handleTracez(rec, httptest.NewRequest(http.MethodGet, "/tracez?"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/tracez?%s status %d: %s", query, rec.Code, rec.Body)
	}
	return rec
}

// TestTracezJSONShape pins every field of /tracez?id= for a hand-built
// trace: the entry's request fields, and per span its id, parent (omitted
// for a root), name, microsecond start and duration, and attrs (omitted when
// empty).
func TestTracezJSONShape(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	rt := trace.NewRequestTrace(id)
	root := rt.Start("daemon.request", trace.Str("op", "compress"), trace.Int("content_length", 4096))
	child := root.Child("daemon.compress")
	child.End()
	root.End()

	traces := newTraceStore(4)
	begin := time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.FixedZone("CEST", 2*3600))
	traces.add(rt, http.MethodPost, "/compress", http.StatusOK, begin, 1500*time.Microsecond)

	var got map[string]any
	if err := json.Unmarshal(getTracez(t, traces, "id="+id).Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	var spans []any
	for _, sp := range rt.Spans() {
		s := map[string]any{
			"id":       float64(sp.ID),
			"name":     sp.Name,
			"start_us": float64(sp.Start) / float64(time.Microsecond),
			"dur_us":   float64(sp.Duration) / float64(time.Microsecond),
		}
		if sp.Parent != 0 {
			s["parent"] = float64(sp.Parent)
		}
		if sp.Name == "daemon.request" {
			s["attrs"] = map[string]any{"op": "compress", "content_length": float64(4096)}
		}
		spans = append(spans, s)
	}
	want := map[string]any{
		"id":          id,
		"method":      "POST",
		"path":        "/compress",
		"status":      float64(200),
		"start":       "2026-08-07T10:00:00.123456789Z",
		"duration_ms": 1.5,
		"spans":       spans,
	}
	if len(spans) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("/tracez?id= JSON:\n got %v\nwant %v", got, want)
	}
}

// TestTracezTreeKeepsOrphans: a span whose parent was not retained — here
// the root never ended — still prints in the text tree, as a root.
func TestTracezTreeKeepsOrphans(t *testing.T) {
	rt := trace.NewRequestTrace("")
	root := rt.Start("daemon.request") // never ended, so never recorded
	root.Child("daemon.admission").End()
	root.Child("daemon.compress", trace.Int("bytes_in", 64)).End()

	traces := newTraceStore(4)
	traces.add(rt, http.MethodPost, "/compress", http.StatusOK, time.Now(), time.Millisecond)

	tree := getTracez(t, traces, "id="+rt.TraceID()+"&format=tree").Body.String()
	lines := strings.Split(strings.TrimRight(tree, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "POST /compress -> 200 in 1.000ms (request "+rt.TraceID()) {
		t.Fatalf("tree has %d lines, want the header and two spans:\n%s", len(lines), tree)
	}
	for _, want := range []string{"daemon.admission", "daemon.compress bytes_in=64"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree lost the orphan %q:\n%s", want, tree)
		}
	}
}
