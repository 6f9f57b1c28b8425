package resilience

import (
	"errors"
	"math"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/faultinject"
	"pressio/internal/trace"

	_ "pressio/internal/lossless"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

// sine fills a smooth float32 field SZ-family compressors handle well.
func sine(dims ...uint64) *core.Data {
	total := uint64(1)
	for _, d := range dims {
		total *= d
	}
	vals := make([]float32, total)
	for i := range vals {
		vals[i] = float32(25 * math.Sin(float64(i)/40))
	}
	return core.FromFloat32s(vals, dims...)
}

func worstAbs(t *testing.T, a, b *core.Data) float64 {
	t.Helper()
	av, bv := a.AsFloat64s(), b.AsFloat64s()
	if len(av) != len(bv) {
		t.Fatalf("length mismatch: %d vs %d", len(av), len(bv))
	}
	worst := 0.0
	for i := range av {
		if d := math.Abs(av[i] - bv[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func newGuard(t *testing.T, opts *core.Options) *core.Compressor {
	t.Helper()
	c, err := core.NewCompressor("guard")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return c
}

// newGuardedFallback builds guard{fallback{tiers}}: the fallback chain writes
// and routes the frames, the guard wraps the chain.
func newGuardedFallback(t *testing.T, tiers string, opts *core.Options) *core.Compressor {
	t.Helper()
	return newGuard(t, opts.
		SetValue("guard:compressor", "fallback").
		SetValue("fallback:compressors", tiers))
}

func TestGuardRoundTripWithFrame(t *testing.T) {
	in := sine(32, 32)
	c := newGuardedFallback(t, "sz_threadsafe", core.NewOptions().SetValue(core.KeyAbs, 0.01))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(comp.Bytes())
	if err != nil {
		t.Fatalf("guard{fallback} produced no valid frame: %v", err)
	}
	if f.Prefix != "sz_threadsafe" {
		t.Errorf("frame producer %q, want the tier sz_threadsafe", f.Prefix)
	}
	// The frame self-describes dtype/dims, so decompress needs no hint.
	out := core.NewEmpty(core.DTypeUnset)
	if err := c.Decompress(comp, out); err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got > 0.01 {
		t.Errorf("max abs error %g exceeds bound", got)
	}

	// Another guard{fallback} instance decodes the same frame.
	other := newGuardedFallback(t, "sz_threadsafe", core.NewOptions().SetValue(core.KeyAbs, 0.01))
	out2, err := core.Decompress(other, comp, core.DTypeFloat32, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out2); got > 0.01 {
		t.Errorf("second instance's decompress error %g exceeds bound", got)
	}
}

func TestGuardContainsPanics(t *testing.T) {
	before := trace.CounterValue(trace.CtrGuardPanics)
	c := newGuard(t, core.NewOptions().
		SetValue("guard:compressor", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:panic_rate", 1.0))
	_, err := core.Compress(c, sine(16))
	if err == nil {
		t.Fatal("compress over always-panicking child succeeded")
	}
	if !errors.Is(err, core.ErrPanicked) {
		t.Errorf("error %v does not wrap ErrPanicked", err)
	}
	if core.IsTransient(err) {
		t.Error("recovered panic classified transient; panics must be permanent")
	}
	if got := trace.CounterValue(trace.CtrGuardPanics) - before; got < 1 {
		t.Errorf("CtrGuardPanics delta = %d, want >= 1", got)
	}
}

func TestGuardRetriesExhaustBudget(t *testing.T) {
	beforeRetries := trace.CounterValue(trace.CtrGuardRetries)
	beforeInjected := trace.CounterValue(faultinject.CtrErrors)
	c := newGuard(t, core.NewOptions().
		SetValue("guard:compressor", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:error_rate", 1.0).
		SetValue("guard:max_retries", uint64(3)).
		SetValue("guard:backoff_initial_ms", int64(1)).
		SetValue("guard:backoff_max_ms", int64(2)))
	_, err := core.Compress(c, sine(16))
	if err == nil {
		t.Fatal("compress over always-failing child succeeded")
	}
	if !core.IsTransient(err) {
		t.Errorf("injected transient error lost its classification: %v", err)
	}
	if got := trace.CounterValue(trace.CtrGuardRetries) - beforeRetries; got != 3 {
		t.Errorf("CtrGuardRetries delta = %d, want 3 (budget exhausted)", got)
	}
	if got := trace.CounterValue(faultinject.CtrErrors) - beforeInjected; got != 4 {
		t.Errorf("injected errors = %d, want 4 (initial try + 3 retries)", got)
	}
}

func TestGuardRetriesEventuallySucceed(t *testing.T) {
	beforeRetries := trace.CounterValue(trace.CtrGuardRetries)
	beforeInjected := trace.CounterValue(faultinject.CtrErrors)
	c := newGuard(t, core.NewOptions().
		SetValue("guard:compressor", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:error_rate", 0.5).
		SetValue("faultinject:seed", int64(3)).
		SetValue("guard:max_retries", uint64(16)).
		SetValue("guard:backoff_initial_ms", int64(1)).
		SetValue("guard:backoff_max_ms", int64(2)))
	in := sine(16)
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatalf("compress with retry budget failed: %v", err)
	}
	retries := trace.CounterValue(trace.CtrGuardRetries) - beforeRetries
	injected := trace.CounterValue(faultinject.CtrErrors) - beforeInjected
	if retries != injected {
		t.Errorf("retries (%d) != injected transient errors (%d): every failure must be retried", retries, injected)
	}
	out, err := core.Decompress(c, comp, core.DTypeFloat32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbs(t, in, out); got != 0 {
		t.Errorf("noop round trip not exact: max err %g", got)
	}
}

func TestGuardDeadline(t *testing.T) {
	before := trace.CounterValue(trace.CtrGuardTimeouts)
	c := newGuard(t, core.NewOptions().
		SetValue("guard:compressor", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:delay_rate", 1.0).
		SetValue("faultinject:delay_ms", int64(2000)).
		SetValue("guard:deadline_ms", int64(25)))
	_, err := core.Compress(c, sine(16))
	if err == nil {
		t.Fatal("compress over stalling child succeeded before deadline")
	}
	if !errors.Is(err, core.ErrTimeout) {
		t.Errorf("error %v does not wrap ErrTimeout", err)
	}
	if !core.IsTransient(err) {
		t.Error("timeout must classify as transient")
	}
	if got := trace.CounterValue(trace.CtrGuardTimeouts) - before; got < 1 {
		t.Errorf("CtrGuardTimeouts delta = %d, want >= 1", got)
	}
}

// TestGuardTimeoutRetryIsolation: a timed-out call keeps running detached
// (Go cannot kill a goroutine), so each retry must use a freshly built child
// and its own target buffer. Under -race this test fails if a retry ever
// shares state with an abandoned attempt.
func TestGuardTimeoutRetryIsolation(t *testing.T) {
	in := sine(256)
	c := newGuard(t, core.NewOptions().
		SetValue("guard:compressor", "faultinject").
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:delay_rate", 1.0).
		SetValue("faultinject:delay_ms", int64(60)).
		SetValue("guard:deadline_ms", int64(10)).
		SetValue("guard:max_retries", uint64(3)).
		SetValue("guard:backoff_initial_ms", int64(1)).
		SetValue("guard:backoff_max_ms", int64(2)))
	if _, err := core.Compress(c, in); !errors.Is(err, core.ErrTimeout) {
		t.Errorf("compress error = %v, want ErrTimeout", err)
	}
	noop, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Compress(noop, in)
	if err != nil {
		t.Fatal(err)
	}
	out := core.NewEmpty(core.DTypeFloat32, 256)
	if err := c.Decompress(plain, out); !errors.Is(err, core.ErrTimeout) {
		t.Errorf("decompress error = %v, want ErrTimeout", err)
	}
	// Let the abandoned attempts drain so their (isolated) writes finish
	// inside the test's race-detection window.
	time.Sleep(150 * time.Millisecond)
}

// TestGuardFrameMagicCollision: with guard:frame off, a raw child stream that
// merely starts with the 4-byte frame magic must not be rejected as a corrupt
// frame — the payload is handed to the child unchanged.
func TestGuardFrameMagicCollision(t *testing.T) {
	raw := append([]byte(FrameMagic), 'x', 'y', 'z', 0, 1, 2, 3)
	in := core.NewBytes(append([]byte(nil), raw...))
	c := newGuard(t, core.NewOptions().SetValue("guard:compressor", "noop"))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	out := core.NewEmpty(core.DTypeByte, uint64(len(raw)))
	if err := c.Decompress(comp, out); err != nil {
		t.Fatalf("magic-colliding raw stream rejected: %v", err)
	}
	if string(out.Bytes()) != string(raw) {
		t.Errorf("round trip mangled payload: %x", out.Bytes())
	}
}

// TestGuardRejectsCorruptedFrame: guard{fallback} decodes a frame once, in
// fallback's Route, so a corrupt frame counts once and is not retried.
func TestGuardRejectsCorruptedFrame(t *testing.T) {
	in := sine(24, 24)
	c := newGuardedFallback(t, "sz_threadsafe", core.NewOptions().SetValue(core.KeyAbs, 0.01))
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), comp.Bytes()...)
	mut[len(mut)-1] ^= 0xff
	before := trace.CounterValue(trace.CtrFrameCorrupt)
	_, err = core.Decompress(c, core.NewBytes(mut), core.DTypeFloat32, 24, 24)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("corrupted frame error = %v, want ErrCorrupt", err)
	}
	if got := trace.CounterValue(trace.CtrFrameCorrupt) - before; got != 1 {
		t.Errorf("CtrFrameCorrupt delta = %d, want 1", got)
	}
}

func TestGuardRejectsForeignFrame(t *testing.T) {
	framed, err := EncodeFrame("zfp", core.DTypeFloat32, []uint64{8}, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	c := newGuardedFallback(t, "sz_threadsafe", core.NewOptions().SetValue(core.KeyAbs, 0.01))
	_, err = core.Decompress(c, core.NewBytes(framed), core.DTypeFloat32, 8)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("foreign frame error = %v, want ErrCorrupt", err)
	}
}

// TestAbandonedCallReadsItsOwnInput: a call the watchdog abandons keeps
// running detached, and the caller owns its input again the moment the
// timeout returns. Each case rewrites the input right after ErrTimeout while
// the delayed call has yet to read it; under -race this fails if the
// abandoned call reads the caller's buffer instead of its own copy.
func TestAbandonedCallReadsItsOwnInput(t *testing.T) {
	slow := core.NewOptions().
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:delay_rate", 1.0).
		SetValue("faultinject:delay_ms", int64(20))
	framed, err := core.Compress(newFallbackComp(t, core.NewOptions().
		SetValue("fallback:compressors", "faultinject").
		SetValue("faultinject:compressor", "noop")), sine(256))
	if err != nil {
		t.Fatal(err)
	}
	guard := newGuard(t, slow.Clone().
		SetValue("guard:compressor", "faultinject").
		SetValue("guard:deadline_ms", int64(1)).
		SetValue("guard:max_retries", uint64(0)))
	chain := newFallbackComp(t, slow.Clone().
		SetValue("fallback:compressors", "faultinject").
		SetValue("fallback:deadline_ms", int64(1)))
	cases := []struct {
		name       string
		c          *core.Compressor
		in         *core.Data
		decompress bool
	}{
		{"guard", guard, sine(256), false},
		{"fallback tier", chain, sine(256), false},
		{"routed frame", chain, framed, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			call, out := tc.c.Compress, core.NewEmpty(core.DTypeByte, 0)
			if tc.decompress {
				call, out = tc.c.Decompress, core.NewEmpty(core.DTypeFloat32, 256)
			}
			if err := call(tc.in, out); !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			copy(tc.in.Bytes(), make([]byte, tc.in.ByteLen()))
			time.Sleep(40 * time.Millisecond) // the abandoned call reads its input
		})
	}
}
