package metrics

import (
	"strings"
	"testing"

	"pressio/internal/core"
	"pressio/internal/trace"

	_ "pressio/internal/lossless"
)

func TestTraceMetricReportsSpanRollups(t *testing.T) {
	trace.Reset()
	trace.ResetTelemetry()
	defer func() {
		trace.Disable()
		trace.Reset()
		trace.ResetTelemetry()
	}()

	c, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMetric("trace")
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(m)

	in := core.FromFloat32s(make([]float32, 256), 16, 16)
	out := core.NewEmpty(core.DTypeByte, 0)
	// The wrapper decides traced-vs-untraced before the Begin hook runs, so
	// the first call only flips the switch; the second call records spans.
	if err := c.Compress(in, out); err != nil {
		t.Fatal(err)
	}
	if !trace.Enabled() {
		t.Fatal("trace metric did not enable collection")
	}
	if err := c.Compress(in, out); err != nil {
		t.Fatal(err)
	}

	res := c.MetricsResults()
	n, err := res.GetUint64("trace:span_count")
	if err != nil || n == 0 {
		t.Fatalf("trace:span_count = %d (%v)", n, err)
	}
	if v, err := res.GetUint64("trace:span/pressio.compress/count"); err != nil || v == 0 {
		t.Fatalf("wrapper span rollup missing: %d (%v)", v, err)
	}
	if v, err := res.GetUint64("trace:span/noop.compress_impl/count"); err != nil || v == 0 {
		t.Fatalf("impl span rollup missing: %d (%v)", v, err)
	}
	if v, err := res.GetInt64("trace:counter/" + trace.CtrCompressCalls); err != nil || v == 0 {
		t.Fatalf("compress calls counter missing: %d (%v)", v, err)
	}
	if _, err := res.GetFloat64("trace:hist/" + trace.HistCompress + "/mean_ms"); err != nil {
		t.Fatalf("latency histogram missing: %v", err)
	}
	found := false
	for _, k := range res.Keys() {
		if strings.HasPrefix(k, "trace:span/") && strings.HasSuffix(k, "/total_ms") {
			found = true
		}
	}
	if !found {
		t.Fatal("no total_ms rollup keys")
	}
}

func TestTraceMetricDisableOption(t *testing.T) {
	defer func() {
		trace.Disable()
		trace.Reset()
	}()
	m, err := core.NewMetric("trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Opts().Set(core.NewOptions().SetValue("trace:enabled", int32(0))); err != nil {
		t.Fatal(err)
	}
	if trace.Enabled() {
		t.Fatal("trace:enabled=0 should disable collection")
	}
	m.BeginCompress(nil)
	if trace.Enabled() {
		t.Fatal("disabled trace metric re-enabled collection from a hook")
	}
	if err := m.Opts().Set(core.NewOptions().SetValue("trace:enabled", int32(1))); err != nil {
		t.Fatal(err)
	}
	if !trace.Enabled() {
		t.Fatal("trace:enabled=1 should enable collection")
	}
}
