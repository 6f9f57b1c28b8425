package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace_event format's "complete"
// flavor (ph "X"): a named interval with microsecond timestamp and duration,
// grouped by pid/tid. chrome://tracing and Perfetto both load it directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document.
// Each span becomes a complete ("X") event on its goroutine's track; the
// span and parent ids ride along in args so tools (and tests) can recover
// the exact nesting without relying on interval containment.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{
			"span_id":   s.ID,
			"parent_id": s.Parent,
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "pressio",
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Goroutine,
			Args: args,
		})
	}
	// Chrome sorts internally but a time-ordered file diffs and reviews
	// better.
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteChromeTraceFile snapshots the collected spans and writes them to
// path as a Chrome trace_event file.
func WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, Snapshot()); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return err
	}
	return f.Close()
}

// WriteTree renders spans as an indented forest, each line showing the
// span's duration, name, and attributes — the quick-look exporter for
// terminals.
func WriteTree(w io.Writer, spans []SpanRecord) error {
	children := make(map[uint64][]SpanRecord, len(spans))
	known := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		known[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		// A span whose parent was dropped (or never ended) prints as a root
		// rather than vanishing.
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(list []SpanRecord) {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	byStart(roots)
	var walk func(s SpanRecord, depth int) error
	walk = func(s SpanRecord, depth int) error {
		line := fmt.Sprintf("%*s%-12s %s", depth*2, "", s.Duration.Round(time.Microsecond), s.Name)
		for _, a := range s.Attrs {
			line += fmt.Sprintf(" %s=%v", a.Key, a.Value)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		kids := children[s.ID]
		byStart(kids)
		for _, k := range kids {
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// Rollup aggregates every span of one name.
type Rollup struct {
	// Count is the number of spans.
	Count int
	// Total is the summed duration.
	Total time.Duration
	// Min and Max bound the individual durations.
	Min, Max time.Duration
}

// Mean returns the average span duration (0 when empty).
func (r Rollup) Mean() time.Duration {
	if r.Count == 0 {
		return 0
	}
	return r.Total / time.Duration(r.Count)
}

// RollupByName aggregates spans by name — the summary the trace metrics
// plugin reports through Results().
func RollupByName(spans []SpanRecord) map[string]Rollup {
	out := make(map[string]Rollup)
	for _, s := range spans {
		r, ok := out[s.Name]
		if !ok || s.Duration < r.Min {
			r.Min = s.Duration
		}
		if s.Duration > r.Max {
			r.Max = s.Duration
		}
		r.Count++
		r.Total += s.Duration
		out[s.Name] = r
	}
	return out
}

// WriteSummary renders span rollups and telemetry registry contents as a
// compact text report (used by pressio-bench after a traced run).
func WriteSummary(w io.Writer, spans []SpanRecord) error {
	rollups := RollupByName(spans)
	names := slices.Sorted(maps.Keys(rollups))
	if _, err := fmt.Fprintf(w, "%-36s %8s %12s %12s %12s\n", "span", "count", "total", "mean", "max"); err != nil {
		return err
	}
	for _, n := range names {
		r := rollups[n]
		if _, err := fmt.Fprintf(w, "%-36s %8d %12s %12s %12s\n",
			n, r.Count, r.Total.Round(time.Microsecond),
			r.Mean().Round(time.Microsecond), r.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	ctrs := Counters()
	if len(ctrs) > 0 {
		if _, err := fmt.Fprintf(w, "%-36s %12s\n", "counter", "value"); err != nil {
			return err
		}
		for _, n := range CounterNames() {
			if _, err := fmt.Fprintf(w, "%-36s %12d\n", n, ctrs[n]); err != nil {
				return err
			}
		}
	}
	for n, h := range Histograms() {
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-36s n=%d mean=%s p99<=%s max=%s\n",
			n, h.Count, h.Mean().Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond), h.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}
