package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
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
	Start time.Time `json:"start"`
	// DurationMs is the end-to-end request latency.
	DurationMs float64 `json:"duration_ms"`
	// Spans is the wire form of the span tree, in completion order. It is
	// built from recorded only when /tracez serves this one entry.
	Spans []spanJSON `json:"spans,omitempty"`
	// recorded is the span tree as the request recorded it.
	recorded []trace.SpanRecord
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

// wireSpans converts recorded spans to their wire form.
func wireSpans(spans []trace.SpanRecord) []spanJSON {
	out := make([]spanJSON, len(spans))
	for i, sp := range spans {
		out[i] = spanJSON{
			ID:      sp.ID,
			Parent:  sp.Parent,
			Name:    sp.Name,
			StartUs: float64(sp.Start) / float64(time.Microsecond),
			DurUs:   float64(sp.Duration) / float64(time.Microsecond),
		}
		if len(sp.Attrs) > 0 {
			out[i].Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				out[i].Attrs[a.Key] = a.Value
			}
		}
	}
	return out
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
	entry := &traceEntry{
		ID:         rt.TraceID(),
		Method:     method,
		Path:       path,
		Status:     status,
		Start:      begin.UTC(),
		DurationMs: float64(dur) / float64(time.Millisecond),
		recorded:   rt.Spans(),
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
		out = append(out, *s.entries[s.order[i]])
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
		_ = trace.WriteTree(w, entry.recorded)
		return
	}
	e := *entry
	e.Spans = wireSpans(e.recorded)
	setNoStore(w, "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(e)
}
