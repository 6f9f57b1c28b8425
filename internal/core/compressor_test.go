package core

import (
	"errors"
	"testing"
)

// fakePlugin is a minimal in-package compressor used to exercise the
// framework wrapper without importing plugin packages (which would create
// an import cycle).
type fakePlugin struct {
	level      int32
	compressN  int
	failNext   bool
	threadSafe ThreadSafety
}

func newFake() *fakePlugin {
	return &fakePlugin{level: 1, threadSafe: ThreadSafetyMultiple}
}

var fakeSchema = NewSchema(
	Field("fake:level", "effort level", AtLeast(0), func(f *fakePlugin) *int32 { return &f.level }),
)

func (f *fakePlugin) Prefix() string { return "fake" }
func (f *fakePlugin) Opts() Opts     { return fakeSchema.For(f) }

func (f *fakePlugin) Configuration() *Options {
	return StandardConfiguration(f.threadSafe, "stable", "0.0.1", false)
}

func (f *fakePlugin) CompressImpl(in, out *Data) error {
	f.compressN++
	if f.failNext {
		f.failNext = false
		return errors.New("boom")
	}
	out.Become(NewBytes(append([]byte(nil), in.Bytes()...)))
	return nil
}

func (f *fakePlugin) DecompressImpl(in, out *Data) error {
	return FillDecompressed(out, append([]byte(nil), in.Bytes()...))
}

func (f *fakePlugin) Clone() CompressorPlugin {
	clone := *f
	return &clone
}

// recordMetric counts hook invocations.
type recordMetric struct {
	begins, ends int
	sawError     bool
}

func (m *recordMetric) Prefix() string         { return "record" }
func (m *recordMetric) Opts() Opts             { return NoOptions(m) }
func (m *recordMetric) BeginCompress(in *Data) { m.begins++ }
func (m *recordMetric) EndCompress(in, out *Data, err error) {
	m.ends++
	if err != nil {
		m.sawError = true
	}
}
func (m *recordMetric) BeginDecompress(in *Data)             { m.begins++ }
func (m *recordMetric) EndDecompress(in, out *Data, e error) { m.ends++ }
func (m *recordMetric) Results() *Options {
	return NewOptions().SetValue("record:begins", int32(m.begins))
}
func (m *recordMetric) Clone() Metric { return &recordMetric{} }

func TestCompressorWrapperRoundTrip(t *testing.T) {
	c := NewCompressorFromPlugin(newFake())
	in := FromFloat32s([]float32{1, 2, 3}, 3)
	comp, err := Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(c, comp, DTypeFloat32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(in) {
		t.Fatal("fake round trip failed")
	}
}

func TestNilDataRejected(t *testing.T) {
	c := NewCompressorFromPlugin(newFake())
	out := NewEmpty(DTypeByte, 0)
	if err := c.Compress(nil, out); !errors.Is(err, ErrNilData) {
		t.Fatalf("nil in: %v", err)
	}
	if err := c.Compress(NewEmpty(DTypeFloat32, 3), out); !errors.Is(err, ErrNilData) {
		t.Fatalf("empty in: %v", err)
	}
	if err := c.Compress(FromFloat32s([]float32{1}), nil); !errors.Is(err, ErrNilData) {
		t.Fatalf("nil out: %v", err)
	}
}

func TestErrorsCarryPluginName(t *testing.T) {
	p := newFake()
	p.failNext = true
	c := NewCompressorFromPlugin(p)
	err := c.Compress(FromFloat32s([]float32{1}), NewEmpty(DTypeByte, 0))
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *PluginError
	if !errors.As(err, &pe) || pe.Plugin != "fake" {
		t.Fatalf("error not annotated: %v", err)
	}
}

func TestMetricsHooksFireAroundCalls(t *testing.T) {
	p := newFake()
	c := NewCompressorFromPlugin(p)
	m := &recordMetric{}
	c.SetMetrics(m)
	in := FromFloat32s([]float32{1, 2})
	comp, err := Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(c, comp, DTypeFloat32, 2); err != nil {
		t.Fatal(err)
	}
	if m.begins != 2 || m.ends != 2 {
		t.Fatalf("hooks: %d begins %d ends", m.begins, m.ends)
	}
	// Hooks fire on error too.
	p.failNext = true
	_ = c.Compress(in, NewEmpty(DTypeByte, 0))
	if !m.sawError {
		t.Fatal("EndCompress did not observe the error")
	}
	if v, _ := c.MetricsResults().GetInt32("record:begins"); v != 3 {
		t.Fatalf("results: %v", v)
	}
}

func TestCloneIsolatesOptionsAndMetrics(t *testing.T) {
	c := NewCompressorFromPlugin(newFake())
	c.SetMetrics(&recordMetric{})
	clone := c.Clone()
	if err := clone.SetOptions(NewOptions().SetValue("fake:level", int32(9))); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Options().GetInt32("fake:level"); v != 1 {
		t.Fatalf("clone options leaked to original: %v", v)
	}
	in := FromFloat32s([]float32{1})
	if _, err := Compress(clone, in); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.MetricsResults().GetInt32("record:begins"); v != 0 {
		t.Fatal("clone metrics leaked to original")
	}
}

func TestCheckOptionsDoesNotMutate(t *testing.T) {
	c := NewCompressorFromPlugin(newFake())
	if err := c.CheckOptions(NewOptions().SetValue("fake:level", int32(-1))); err == nil {
		t.Fatal("expected validation failure")
	}
	if err := c.CheckOptions(NewOptions().SetValue("fake:level", int32(7))); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Options().GetInt32("fake:level"); v != 1 {
		t.Fatalf("CheckOptions mutated: %v", v)
	}
}

func TestThreadSafetyReporting(t *testing.T) {
	p := newFake()
	p.threadSafe = ThreadSafetySerialized
	c := NewCompressorFromPlugin(p)
	if got := c.ThreadSafety(); got != ThreadSafetySerialized {
		t.Fatalf("thread safety %v", got)
	}
	for _, ts := range []ThreadSafety{ThreadSafetySingle, ThreadSafetySerialized, ThreadSafetyMultiple} {
		if ts.String() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	if _, err := NewCompressor("definitely_not_registered"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("unknown compressor: %v", err)
	}
	if _, err := NewMetric("definitely_not_registered"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("unknown metric: %v", err)
	}
	if _, err := NewIO("definitely_not_registered"); !errors.Is(err, ErrUnknownPlugin) {
		t.Fatalf("unknown io: %v", err)
	}
}

func TestThirdPartyRegistration(t *testing.T) {
	// Registering from outside the framework's own packages is the
	// third-party extension mechanism: a registry open for registration
	// takes the plugin under its prefix and builds a fresh instance per call.
	r := &registry[CompressorPlugin]{kind: "compressor"}
	r.register("fake", func() CompressorPlugin { return newFake() })
	a, errA := r.new("fake")
	b, errB := r.new("fake")
	if errA != nil || errB != nil || a.Prefix() != "fake" || a == b {
		t.Fatalf("third party plugin: %v, %v, shared instance %v", errA, errB, a == b)
	}
}

func TestErrorBoundModeParsing(t *testing.T) {
	if m, err := ParseErrorBoundMode("abs"); err != nil || m != BoundAbs {
		t.Fatal("abs parse failed")
	}
	if m, err := ParseErrorBoundMode("rel"); err != nil || m != BoundValueRangeRel {
		t.Fatal("rel parse failed")
	}
	if _, err := ParseErrorBoundMode("psnr"); err == nil {
		t.Fatal("expected unknown mode error")
	}
	if BoundAbs.String() != "abs" || BoundValueRangeRel.String() != "rel" {
		t.Fatal("mode names wrong")
	}
}

func TestBoundRowsApplyAndDescribe(t *testing.T) {
	schema := NewSchema(BoundRows("x", func(b *BoundConfig) *BoundConfig { return b })...)
	b := BoundConfig{Mode: BoundAbs, Bound: 0.5}
	if err := schema.For(&b).Set(NewOptions().SetValue(KeyRel, 1e-3)); err != nil {
		t.Fatal(err)
	}
	if b.Mode != BoundValueRangeRel || b.Bound != 1e-3 {
		t.Fatalf("apply rel: %+v", b)
	}
	if err := schema.For(&b).Set(NewOptions().SetValue("x:abs_err_bound", 0.25)); err != nil {
		t.Fatal(err)
	}
	if b.Mode != BoundAbs || b.Bound != 0.25 {
		t.Fatalf("apply prefix abs: %+v", b)
	}
	// An explicit mode string overrides the mode a bound key implies.
	mixed := NewOptions().SetValue("x:abs_err_bound", 0.125).SetValue("x:error_bound_mode_str", "rel")
	if err := schema.For(&b).Set(mixed); err != nil {
		t.Fatal(err)
	}
	if b.Mode != BoundValueRangeRel || b.Bound != 0.125 {
		t.Fatalf("apply bound + mode: %+v", b)
	}
	b = BoundConfig{Mode: BoundAbs, Bound: 0.25}
	desc := schema.For(&b).Options()
	if v, _ := desc.GetFloat64("x:abs_err_bound"); v != 0.25 {
		t.Fatal("describe missed bound")
	}
	if s, _ := desc.GetString("x:error_bound_mode_str"); s != "abs" {
		t.Fatal("describe missed mode")
	}
	if o, _ := desc.Get(KeyRel); o.HasValue() || o.Type() != OptDouble {
		t.Fatalf("inactive bound should be a typed placeholder, got %v", o)
	}
}
