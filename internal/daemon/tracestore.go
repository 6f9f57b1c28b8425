package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pressio/internal/trace"
)

// traceStore retains the span trees of the most recent data-plane requests,
// keyed by trace id, in a bounded FIFO ring. It is the backing store of the
// /tracez endpoint: a client that kept the X-Pressio-Request-Id from a
// response can pull that request's span tree for as long as it stays within
// the retention window.
type traceStore struct {
	mu      sync.Mutex
	cap     int
	order   []string
	entries map[string]*traceEntry
}

// traceEntry is one completed request's record.
type traceEntry struct {
	// ID is the W3C trace id (also the X-Pressio-Request-Id header value).
	ID string `json:"id"`
	// Method and Path identify the request.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Status is the HTTP status the daemon answered with.
	Status int `json:"status"`
	// Start is the request arrival time (RFC3339Nano, UTC).
	Start string `json:"start"`
	// DurationMs is the end-to-end request latency.
	DurationMs float64 `json:"duration_ms"`
	// Spans is the recorded span tree, in completion order.
	Spans []spanJSON `json:"spans,omitempty"`
}

// spanJSON is the wire form of one span: microsecond offsets, flattened
// attributes.
type spanJSON struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{cap: capacity, entries: make(map[string]*traceEntry, capacity)}
}

// add records a completed request trace, evicting the oldest entry when the
// ring is full. A repeated trace id (a client replaying the same inbound
// traceparent) overwrites its previous entry rather than occupying two
// slots.
func (s *traceStore) add(rt *trace.RequestTrace, method, path string, status int, begin time.Time, dur time.Duration) {
	if s == nil || rt == nil {
		return
	}
	spans := rt.Spans()
	spansJS := make([]spanJSON, 0, len(spans))
	for _, sp := range spans {
		js := spanJSON{
			ID:      sp.ID,
			Parent:  sp.Parent,
			Name:    sp.Name,
			StartUs: float64(sp.Start) / float64(time.Microsecond),
			DurUs:   float64(sp.Duration) / float64(time.Microsecond),
		}
		if len(sp.Attrs) > 0 {
			// The attrs map is the retained /tracez representation itself —
			// it has to be allocated per span to outlive the request.
			//lint:ignore hotalloc the map is the retained trace entry, built once per completed request off the response path
			js.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				js.Attrs[a.Key] = a.Value
			}
		}
		spansJS = append(spansJS, js)
	}
	entry := &traceEntry{
		ID:         rt.TraceID(),
		Method:     method,
		Path:       path,
		Status:     status,
		Start:      begin.UTC().Format(time.RFC3339Nano),
		DurationMs: float64(dur) / float64(time.Millisecond),
		Spans:      spansJS,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[entry.ID]; dup {
		s.entries[entry.ID] = entry
		return
	}
	if len(s.order) >= s.cap {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
	s.order = append(s.order, entry.ID)
	s.entries[entry.ID] = entry
}

// get returns the entry for a trace id, or nil.
func (s *traceStore) get(id string) *traceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[id]
}

// recent returns summaries (no spans) of the retained requests, newest
// first.
func (s *traceStore) recent() []traceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]traceEntry, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		e := *s.entries[s.order[i]]
		e.Spans = nil
		out = append(out, e)
	}
	return out
}

// handleTracez serves recorded request span trees. Without an id parameter
// it lists recent requests (newest first, spans elided); with ?id=<trace-id>
// it returns the full span tree as JSON, or — with &format=tree — as an
// indented text tree for terminals.
func (d *Daemon) handleTracez(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		setNoStore(w, "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"capacity": d.traces.cap,
			"recent":   d.traces.recent(),
		})
		return
	}
	entry := d.traces.get(id)
	if entry == nil {
		setNoStore(w, textContentType)
		http.Error(w, fmt.Sprintf("no retained trace for id %q (retention: last %d requests)", id, d.traces.cap), http.StatusNotFound)
		return
	}
	if q.Get("format") == "tree" {
		setNoStore(w, textContentType)
		fmt.Fprintf(w, "%s %s -> %d in %.3fms (request %s)\n",
			entry.Method, entry.Path, entry.Status, entry.DurationMs, entry.ID)
		_, _ = w.Write(renderTree(entry.Spans))
		return
	}
	setNoStore(w, "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(entry)
}

// renderTree renders a span tree as indented text, children under parents
// in start order.
func renderTree(spans []spanJSON) []byte {
	children := map[uint64][]spanJSON{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var buf bytes.Buffer
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		kids := children[parent]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		for _, sp := range kids {
			for i := 0; i < depth; i++ {
				buf.WriteString("  ")
			}
			fmt.Fprintf(&buf, "%s %.3fms", sp.Name, sp.DurUs/1000)
			if len(sp.Attrs) > 0 {
				fmt.Fprintf(&buf, " %v", sp.Attrs)
			}
			buf.WriteByte('\n')
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	return buf.Bytes()
}
