package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"pressio/internal/trace"
)

// Span names the benchmark records around its own calls, and the daemon's
// existing span names it reads back from /tracez.
const (
	spanClientRequest = "client.request"
	spanDaemonRequest = "daemon.request"
	spanDaemonRoute   = "daemon.route"
)

// tracer collects the traced run's spans. Each op gets its own
// trace.RequestTrace (one trace id per op); when the op ends its spans are
// re-based onto the run's clock and kept in memory, and the file is written
// once, after the run.
type tracer struct {
	epoch time.Time
	// started[c] is when client c's current op began: a RequestTrace does not
	// expose its epoch, and the two are nanoseconds apart.
	started []time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []trace.SpanRecord
	ops    []tracedOp
}

// tracedOp locates one op's root span inside tracer.spans.
type tracedOp struct {
	traceID string
	root    int
	// complete means every layer that records spans for this op has been
	// merged in, so its self times add up to the client-observed time.
	complete bool
}

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), started: make([]time.Time, clients)}
}

// begin opens the trace of client c's next op. A nil tracer yields a nil
// trace, on which every method is a no-op: that is the untraced run.
func (t *tracer) begin(c int) *trace.RequestTrace {
	if t == nil {
		return nil
	}
	t.started[c] = time.Now()
	return trace.NewRequestTrace("")
}

// end harvests a finished op's spans.
func (t *tracer) end(c int, rt *trace.RequestTrace) {
	if t == nil {
		return
	}
	spans := rt.Spans()
	if len(spans) == 0 {
		return
	}
	offset := t.started[c].Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.add(spans, 0, offset, uint64(c+1))
	t.ops = append(t.ops, tracedOp{traceID: rt.TraceID(), root: root})
}

// add appends one span tree under fresh ids. Spans whose parent is 0 are
// re-parented under parent; shift moves the tree onto the run's clock. It
// returns the index of the tree's root. Only end and span run while clients
// do, and they hold t.mu around it; everything after a phase is sequential.
func (t *tracer) add(spans []trace.SpanRecord, parent uint64, shift time.Duration, track uint64) int {
	base := t.nextID
	root := -1
	for _, s := range spans {
		if s.ID+base > t.nextID {
			t.nextID = s.ID + base
		}
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
			root = len(t.spans)
		} else {
			s.Parent += base
		}
		s.Start += shift
		s.Goroutine = track
		t.spans = append(t.spans, s)
	}
	return root
}

// span records a region of the benchmark's own making (a layer probe) as a
// root span on its own track.
func (t *tracer) span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, trace.SpanRecord{
		ID: t.nextID, Name: name, Goroutine: probeTrack,
		Start: start.Sub(t.epoch), Duration: d,
	})
}

// probeTrack is the Chrome-trace track of the layer probes; clients use 1..n.
const probeTrack = 100

// tracezEntry mirrors the JSON the daemon serves at /tracez?id=.
type tracezEntry struct {
	Spans []struct {
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent"`
		Name    string  `json:"name"`
		StartUs float64 `json:"start_us"`
		DurUs   float64 `json:"dur_us"`
	} `json:"spans"`
}

// fetchTracez reads one request's span tree from a daemon's /tracez, the
// existing operator surface. ok is false when the daemon no longer retains
// (or never saw) the id.
func fetchTracez(client *http.Client, base, traceID string) (spans []trace.SpanRecord, ok bool, err error) {
	resp, err := client.Get(base + "/tracez?id=" + traceID)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("GET /tracez: status %d", resp.StatusCode)
	}
	var entry tracezEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		return nil, false, fmt.Errorf("decoding /tracez: %w", err)
	}
	for _, s := range entry.Spans {
		spans = append(spans, trace.SpanRecord{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			Start:    time.Duration(s.StartUs * float64(time.Microsecond)),
			Duration: time.Duration(s.DurUs * float64(time.Microsecond)),
		})
	}
	return spans, len(spans) > 0, nil
}

// rootOf returns the index of the span tree's root (parent 0), or -1.
func rootOf(spans []trace.SpanRecord) int {
	for i, s := range spans {
		if s.Parent == 0 {
			return i
		}
	}
	return -1
}

// mergeDaemonSpans pulls the daemons' own span trees for the most recent
// traced ops and nests them under the client's spans. front is the daemon the
// client talked to; shards are the peers a router forwarded to (their trees
// nest under the router's daemon.route span). The daemon's clock offset
// inside the client's interval is unknown, so a tree is centred in its
// parent: request and response framing are assumed symmetric.
func (t *tracer) mergeDaemonSpans(client *http.Client, front string, shards []string, limit int) error {
	first := len(t.ops) - limit
	if first < 0 {
		first = 0
	}
	for i := first; i < len(t.ops); i++ {
		op := &t.ops[i]
		tree, ok, err := fetchTracez(client, front, op.traceID)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		parent := t.spans[op.root]
		at := t.nest(tree, parent)
		op.complete = true
		// A routed op's shard tree hangs under the router's route span.
		routeIdx := -1
		for j := at; j < len(t.spans); j++ {
			if t.spans[j].Name == spanDaemonRoute {
				routeIdx = j
			}
		}
		if routeIdx < 0 {
			continue
		}
		for _, shard := range shards {
			tree, ok, err := fetchTracez(client, shard, op.traceID)
			if err != nil {
				return err
			}
			if ok {
				t.nest(tree, t.spans[routeIdx])
			}
		}
	}
	return nil
}

// nest adds a daemon's span tree centred inside parent and returns the index
// of its first span.
func (t *tracer) nest(tree []trace.SpanRecord, parent trace.SpanRecord) int {
	at := len(t.spans)
	r := rootOf(tree)
	if r < 0 {
		return at
	}
	slack := parent.Duration - tree[r].Duration
	if slack < 0 {
		slack = 0
	}
	shift := parent.Start + slack/2 - tree[r].Start
	t.add(tree, parent.ID, shift, parent.Goroutine)
	return at
}

// selfTimes returns, per span name, the summed self time of the spans
// reachable from the given roots: a span's duration minus the part of it its
// children cover.
func selfTimes(spans []trace.SpanRecord, roots []int) map[string]time.Duration {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		end := s.Start + s.Duration
		for _, k := range kids {
			ks, ke := spans[k].Start, spans[k].Start+spans[k].Duration
			if ks < cursor {
				ks = cursor
			}
			if ke > end {
				ke = end
			}
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
			walk(k)
		}
		out[s.Name] += s.Duration - covered
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// attribution is where the client-observed time of the traced ops went.
type attribution struct {
	ops      int
	observed time.Duration            // summed root-span durations
	self     map[string]time.Duration // summed self time by span name
	rootSelf time.Duration            // self time of the root spans
}

// attribute rolls up the complete ops. When no op was merged with a daemon
// tree (the workload has no daemon, or its handlers record no spans) every op
// counts: its root span is then all there is.
func (t *tracer) attribute() attribution {
	var roots []int
	for _, op := range t.ops {
		if op.complete {
			roots = append(roots, op.root)
		}
	}
	if len(roots) == 0 {
		for _, op := range t.ops {
			roots = append(roots, op.root)
		}
	}
	a := attribution{ops: len(roots), self: selfTimes(t.spans, roots)}
	rootNames := map[string]bool{}
	for _, r := range roots {
		a.observed += t.spans[r].Duration
		rootNames[t.spans[r].Name] = true
	}
	for name := range rootNames {
		a.rootSelf += a.self[name]
	}
	return a
}

// writeChrome writes the last maxOps ops' spans plus every probe span as one
// Chrome trace_event file (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string, maxOps int) error {
	var from time.Duration
	if n := len(t.ops); n > maxOps {
		from = t.spans[t.ops[n-maxOps].root].Start
	}
	var keep []trace.SpanRecord
	for _, s := range t.spans {
		if s.Goroutine == probeTrack || s.Start >= from {
			keep = append(keep, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, keep); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return err
	}
	return f.Close()
}
