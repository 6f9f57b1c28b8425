package trace

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the telemetry
// registry. Counters become `pressio_<name>_total` counter series, latency
// histograms become cumulative `_bucket`/`_sum`/`_count` series in seconds,
// and callers may append gauges (live queue depths, runtime stats, build
// info). A JSON rendering of the same data is kept for tooling that predates
// the exposition format.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Gauge is an instantaneous value for exposition: a sampled runtime stat, a
// live queue depth, or a constant info metric with labels.
type Gauge struct {
	// Name is the raw metric name; it is mangled by PromName on output.
	Name string
	// Help is the one-line HELP text.
	Help string
	// Labels are optional key/value pairs rendered inside {...}.
	Labels map[string]string
	// Value is the sampled value.
	Value float64
}

// PromName mangles a registry key into a legal Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_' and the "pressio_"
// namespace prefix is prepended (unless already present).
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 8)
	if !strings.HasPrefix(name, "pressio_") {
		b.WriteString("pressio_")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set in deterministic (sorted) order.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range slices.Sorted(maps.Keys(labels)) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat formats a sample value the way Prometheus expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered counter and histogram, plus the
// supplied gauges, in the Prometheus text exposition format. Output order is
// deterministic: counters sorted by name, histograms sorted by name, then
// gauges in the order given.
func WritePrometheus(w io.Writer, gauges ...Gauge) error {
	counters := Counters()
	for _, name := range slices.Sorted(maps.Keys(counters)) {
		pn := PromName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s pressio counter %s\n# TYPE %s counter\n%s %d\n",
			pn, name, pn, pn, counters[name]); err != nil {
			return err
		}
	}

	hists := Histograms()
	for _, name := range slices.Sorted(maps.Keys(hists)) {
		if err := writePromHistogram(w, name, hists[name]); err != nil {
			return err
		}
	}

	for _, g := range gauges {
		pn := PromName(g.Name)
		help := g.Help
		if help == "" {
			help = "pressio gauge " + g.Name
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s%s %s\n",
			pn, help, pn, pn, promLabels(g.Labels), promFloat(g.Value)); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one registry histogram as a cumulative
// Prometheus histogram in seconds. Registry bucket i holds observations with
// nanoseconds in [2^(i-1), 2^i), so bucket i's upper bound is 2^i ns;
// buckets above the highest populated one are elided (they add no
// information — the +Inf bucket closes the series).
func writePromHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	pn := PromName(name) + "_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s pressio latency histogram %s\n# TYPE %s histogram\n",
		pn, name, pn); err != nil {
		return err
	}
	last := 0
	for i, n := range s.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += s.Buckets[i]
		le := float64(uint64(1)<<uint(i)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(le), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		pn, s.Count, pn, promFloat(s.Sum.Seconds()), pn, s.Count)
	return err
}

// RuntimeGauges samples the Go runtime: goroutine count, heap and GC state.
// It is the exposition-time sampler behind pressiod's /metricz runtime
// section; ReadMemStats costs a brief stop-the-world, which is fine at
// scrape frequency.
func RuntimeGauges() []Gauge {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return []Gauge{
		{Name: "pressio_goroutines", Help: "number of live goroutines", Value: float64(runtime.NumGoroutine())},
		{Name: "pressio_heap_alloc_bytes", Help: "bytes of allocated heap objects", Value: float64(m.HeapAlloc)},
		{Name: "pressio_heap_sys_bytes", Help: "bytes of heap obtained from the OS", Value: float64(m.HeapSys)},
		{Name: "pressio_heap_objects", Help: "number of allocated heap objects", Value: float64(m.HeapObjects)},
		{Name: "pressio_mallocs_total", Help: "cumulative count of heap allocations", Value: float64(m.Mallocs)},
		{Name: "pressio_gc_cycles_total", Help: "completed GC cycles", Value: float64(m.NumGC)},
		{Name: "pressio_gc_pause_seconds_total", Help: "cumulative GC stop-the-world pause", Value: float64(m.PauseTotalNs) / 1e9},
		{Name: "pressio_gc_next_target_bytes", Help: "heap size target of the next GC cycle", Value: float64(m.NextGC)},
	}
}

// BuildInfoGauge is the conventional constant info metric carrying version
// labels: `pressio_build_info{go_version="go1.x", ...} 1`.
func BuildInfoGauge(version string) Gauge {
	return Gauge{
		Name: "pressio_build_info",
		Help: "build information; the value is always 1",
		Labels: map[string]string{
			"go_version": runtime.Version(),
			"version":    version,
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		Value: 1,
	}
}
