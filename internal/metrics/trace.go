package metrics

import (
	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the trace metric owns.
const (
	keyTraceEnabled = "trace:enabled"
)

func init() {
	core.RegisterMetric("trace", func() core.Metric { return &traceMetric{enable: 1} })
}

// traceMetric exposes the observability layer the LibPressio way: attach the
// "trace" metrics plugin to a compressor and its Results() report span
// rollups, telemetry counters, and latency histograms as introspectable
// Options — no new client API needed. Attaching it (or setting
// keyTraceEnabled=1) turns global span collection on; the underlying trace
// buffer and registry are process-wide, which the plugin advertises by
// behaving like a view rather than a per-instance store.
type traceMetric struct {
	// enable mirrors the keyTraceEnabled option; non-zero switches global
	// span collection on at the first hook.
	enable int32
}

func (m *traceMetric) Prefix() string { return "trace" }

var traceSchema = core.NewSchema(
	core.Field(keyTraceEnabled, "non-zero switches process-wide span collection on, zero switches it off", core.Bounds{},
		func(m *traceMetric) *int32 { return &m.enable }).
		WithEffect(func(m *traceMetric) { trace.SetEnabled(m.enable != 0) }),
)

func (m *traceMetric) Options() *core.Options             { return traceSchema.Options(m) }
func (m *traceMetric) SetOptions(o *core.Options) error   { return traceSchema.Set(m, o) }
func (m *traceMetric) CheckOptions(o *core.Options) error { return traceSchema.Check(m, o) }
func (m *traceMetric) Schema() []core.OptionSpec          { return traceSchema.Specs() }

func (m *traceMetric) BeginCompress(in *core.Data) {
	if m.enable != 0 && !trace.Enabled() {
		trace.Enable()
	}
}

func (m *traceMetric) EndCompress(in, out *core.Data, err error) {}

func (m *traceMetric) BeginDecompress(in *core.Data) {
	if m.enable != 0 && !trace.Enabled() {
		trace.Enable()
	}
}

func (m *traceMetric) EndDecompress(in, out *core.Data, err error) {}

// Results reports one entry per span name ("trace:span/<name>/count",
// ".../total_ms", ".../mean_ms"), every registry counter
// ("trace:counter/<name>") and histogram summary
// ("trace:hist/<name>/count", ".../mean_ms", ".../max_ms"), plus the total
// buffered span count under "trace:span_count".
func (m *traceMetric) Results() *core.Options {
	o := core.NewOptions()
	spans := trace.Snapshot()
	o.SetValue("trace:span_count", uint64(len(spans)))
	for name, r := range trace.RollupByName(spans) {
		base := "trace:span/" + name
		o.SetValue(base+"/count", uint64(r.Count))
		o.SetValue(base+"/total_ms", float64(r.Total.Nanoseconds())/1e6)
		o.SetValue(base+"/mean_ms", float64(r.Mean().Nanoseconds())/1e6)
	}
	for name, v := range trace.Counters() {
		o.SetValue("trace:counter/"+name, v)
	}
	for name, h := range trace.Histograms() {
		if h.Count == 0 {
			continue
		}
		base := "trace:hist/" + name
		o.SetValue(base+"/count", h.Count)
		o.SetValue(base+"/mean_ms", float64(h.Mean().Nanoseconds())/1e6)
		o.SetValue(base+"/max_ms", float64(h.Max.Nanoseconds())/1e6)
	}
	return o
}

// Clone returns an instance with the same configuration. Span and counter
// state is process-global by design (the registry is one per process), so
// clones share the underlying measurements — analogous to plugins that
// advertise pressio:shared_instance.
func (m *traceMetric) Clone() core.Metric { return &traceMetric{enable: m.enable} }
