package resilience

import (
	"errors"
	"strings"
	"testing"

	"pressio/internal/core"
	"pressio/internal/trace"

	_ "pressio/internal/faultinject"
	_ "pressio/internal/lossless"
	_ "pressio/internal/sz"
)

func newFallbackComp(t *testing.T, opts *core.Options) *core.Compressor {
	t.Helper()
	c, err := core.NewCompressor("fallback")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return c
}

func lastTier(t *testing.T, c *core.Compressor) string {
	t.Helper()
	v, err := c.Options().GetString("fallback:last_tier")
	if err != nil {
		t.Fatalf("fallback:last_tier: %v", err)
	}
	return v
}

func TestFallbackPrefersFirstTier(t *testing.T) {
	in := sine(32, 32)
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "sz_threadsafe,noop").
		SetValue(core.KeyAbs, 0.01))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(comp.Bytes())
	if err != nil {
		t.Fatalf("fallback output not a valid frame: %v", err)
	}
	if f.Prefix != "sz_threadsafe" {
		t.Errorf("healthy chain served by %q, want preferred tier", f.Prefix)
	}
	if got := lastTier(t, c); got != "sz_threadsafe" {
		t.Errorf("fallback:last_tier = %q", got)
	}
	out, err := core.Decompress(c, comp, core.DTypeFloat32, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got > 0.01 {
		t.Errorf("max abs error %g exceeds bound", got)
	}
}

func TestFallbackDegradesOnError(t *testing.T) {
	engaged := trace.CounterValue(trace.CtrFallbackEngaged)
	noopServed := trace.CounterValue(trace.FallbackTierKey("noop"))
	in := sine(64)
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "faultinject,noop").
		SetValue("faultinject:compressor", "sz_threadsafe").
		SetValue("faultinject:error_rate", 1.0))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatalf("chain with reliable final tier failed: %v", err)
	}
	if got := trace.CounterValue(trace.CtrFallbackEngaged) - engaged; got != 1 {
		t.Errorf("CtrFallbackEngaged delta = %d, want 1", got)
	}
	if got := trace.CounterValue(trace.FallbackTierKey("noop")) - noopServed; got != 1 {
		t.Errorf("noop tier counter delta = %d, want 1", got)
	}
	if got := lastTier(t, c); got != "noop" {
		t.Errorf("fallback:last_tier = %q, want noop", got)
	}
	// The frame records the tier that actually served, so decompression
	// routes straight to it; no hint needed (frame carries dtype/dims).
	out := core.NewEmpty(core.DTypeUnset)
	if err := c.Decompress(comp, out); err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got != 0 {
		t.Errorf("lossless tier round trip not exact: %g", got)
	}
}

func TestFallbackDegradesOnPanic(t *testing.T) {
	panics := trace.CounterValue(trace.CtrGuardPanics)
	in := sine(64)
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "faultinject,noop").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:panic_rate", 1.0))
	if _, err := core.Compress(c, in); err != nil {
		t.Fatalf("chain should absorb the panic and degrade: %v", err)
	}
	if got := trace.CounterValue(trace.CtrGuardPanics) - panics; got != 1 {
		t.Errorf("CtrGuardPanics delta = %d, want 1", got)
	}
	if got := lastTier(t, c); got != "noop" {
		t.Errorf("fallback:last_tier = %q, want noop", got)
	}
}

func TestFallbackVerifyGateDegrades(t *testing.T) {
	verifyFailed := trace.CounterValue(trace.CtrFallbackVerifyFailed)
	in := sine(48, 48)
	// sz at abs=0.05 cannot satisfy a 1e-9 round-trip bound; the verify gate
	// must reject its stream and degrade to the lossless tier, which can.
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "sz_threadsafe,noop").
		SetValue("fallback:verify", int32(1)).
		SetValue("fallback:verify_abs", 1e-9).
		SetValue(core.KeyAbs, 0.05))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.CounterValue(trace.CtrFallbackVerifyFailed) - verifyFailed; got < 1 {
		t.Errorf("CtrFallbackVerifyFailed delta = %d, want >= 1", got)
	}
	if got := lastTier(t, c); got != "noop" {
		t.Errorf("fallback:last_tier = %q, want noop after verify rejection", got)
	}
	out, err := core.Decompress(c, comp, core.DTypeFloat32, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got != 0 {
		t.Errorf("verified tier round trip not exact: %g", got)
	}
}

func TestFallbackExhausted(t *testing.T) {
	exhausted := trace.CounterValue(trace.CtrFallbackExhausted)
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:error_rate", 1.0))
	_, err := core.Compress(c, sine(16))
	if err == nil {
		t.Fatal("single always-failing tier succeeded")
	}
	if got := trace.CounterValue(trace.CtrFallbackExhausted) - exhausted; got != 1 {
		t.Errorf("CtrFallbackExhausted delta = %d, want 1", got)
	}
	if !core.IsTransient(err) {
		t.Errorf("joined tier errors lost the transient mark: %v", err)
	}
}

func TestFallbackRejectsCorruptFrame(t *testing.T) {
	in := sine(32)
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "noop"))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), comp.Bytes()...)
	mut[len(mut)-1] ^= 0x01
	before := trace.CounterValue(trace.CtrFrameCorrupt)
	_, err = core.Decompress(c, core.NewBytes(mut), core.DTypeFloat32, 32)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("corrupted frame error = %v, want ErrCorrupt", err)
	}
	if got := trace.CounterValue(trace.CtrFrameCorrupt) - before; got != 1 {
		t.Errorf("CtrFrameCorrupt delta = %d, want 1", got)
	}
}

// TestFallbackFrameTierInstantiationError: when the frame's producer IS in
// the chain but that tier fails to instantiate, the error must report the
// instantiation failure, not masquerade as stream corruption.
func TestFallbackFrameTierInstantiationError(t *testing.T) {
	framed, err := EncodeFrame("no_such_plugin", core.DTypeFloat32, []uint64{4}, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "no_such_plugin,noop"))
	_, err = core.Decompress(c, core.NewBytes(framed), core.DTypeFloat32, 4)
	if err == nil {
		t.Fatal("frame for uninstantiable tier decompressed successfully")
	}
	if errors.Is(err, core.ErrCorrupt) {
		t.Errorf("instantiation failure misreported as corruption: %v", err)
	}
	if !strings.Contains(err.Error(), "no_such_plugin") {
		t.Errorf("error %v does not name the failing tier", err)
	}
}

func TestFallbackRejectsUnknownProducer(t *testing.T) {
	framed, err := EncodeFrame("tthresh", core.DTypeFloat32, []uint64{4}, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "noop"))
	_, err = core.Decompress(c, core.NewBytes(framed), core.DTypeFloat32, 4)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("frame from outside the chain: err = %v, want ErrCorrupt", err)
	}
}

// TestFallbackUnframedProbing: a stream fallback did not write (here the
// tier's own, unframed) is decoded by probing the chain in preference order.
func TestFallbackUnframedProbing(t *testing.T) {
	in := sine(64)
	noop, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(noop, in)
	if err != nil {
		t.Fatal(err)
	}
	if IsFramed(comp.Bytes()) {
		t.Fatal("the noop stream starts with the frame magic")
	}
	// A consumer whose preferred tier cannot decode the stream probes down
	// the chain until one does.
	consumer := newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "flate,noop"))
	out, err := core.Decompress(consumer, comp, core.DTypeFloat32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got != 0 {
		t.Errorf("probed round trip not exact: %g", got)
	}
	if got := lastTier(t, consumer); got != "noop" {
		t.Errorf("fallback:last_tier = %q, want noop", got)
	}
}
