package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"

	_ "pressio/internal/faultinject"
	_ "pressio/internal/lossless"
)

// newTestBreaker builds a breaker compressor over the deterministic fault
// injector with a fake clock installed, returning the handles tests drive.
func newTestBreaker(t *testing.T, scope string, opts map[string]any) (*core.Compressor, *breaker, *FakeClock) {
	t.Helper()
	ResetShared()
	trace.ResetTelemetry()
	comp, err := core.NewCompressor("breaker")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.SetValue(keyBreakerCompressor, "faultinject")
	o.SetValue(keyBreakerScope, scope)
	o.SetValue(keyBreakerWindow, uint64(8))
	o.SetValue(keyBreakerFailures, uint64(3))
	o.SetValue(keyBreakerOpenMS, int64(1000))
	o.SetValue(keyBreakerProbes, uint64(1))
	o.SetValue("faultinject:compressor", "noop")
	o.SetValue("faultinject:seed", int64(7))
	for k, v := range opts {
		switch v := v.(type) {
		case string:
			o.SetValue(k, v)
		case int64:
			o.SetValue(k, v)
		case uint64:
			o.SetValue(k, v)
		case float64:
			o.SetValue(k, v)
		}
	}
	if err := comp.SetOptions(o); err != nil {
		t.Fatal(err)
	}
	b := comp.Plugin().(*breaker)
	fc := NewFakeClock(time.Unix(0, 0))
	b.state().SetClock(fc)
	return comp, b, fc
}

func compressOnce(comp *core.Compressor) error {
	in := core.FromFloat64s([]float64{1, 2, 3, 4}, 4)
	out := core.NewEmpty(core.DTypeByte, 0)
	return comp.Compress(in, out)
}

func TestBreakerTripsAfterThresholdAndRejectsFast(t *testing.T) {
	comp, b, _ := newTestBreaker(t, "trip", map[string]any{
		"faultinject:error_rate": float64(1),
	})
	// failure_threshold=3: the first three calls reach the (failing) child,
	// the fourth is rejected without touching it.
	for i := 0; i < 3; i++ {
		err := compressOnce(comp)
		if err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("call %d: want an injected child failure, got %v", i, err)
		}
	}
	if got := b.state().Mode(); got != ModeOpen {
		t.Fatalf("after %d failures state is %v, want open", 3, got)
	}
	injectedBefore := trace.CounterValue("faultinject.errors")
	err := compressOnce(comp)
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, core.ErrShed) {
		t.Fatalf("open circuit returned %v, want ErrBreakerOpen wrapping ErrShed", err)
	}
	if d := trace.CounterValue("faultinject.errors") - injectedBefore; d != 0 {
		t.Fatalf("open circuit still reached the child (%d injected faults)", d)
	}
	if trace.CounterValue(trace.CtrBreakerOpened) != 1 {
		t.Fatalf("opened counter %d, want 1", trace.CounterValue(trace.CtrBreakerOpened))
	}
	if trace.CounterValue(trace.BreakerScopeKey("trip")) != 1 {
		t.Fatal("per-scope opened counter not incremented")
	}
	if trace.CounterValue(trace.CtrBreakerRejected) == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	comp, b, fc := newTestBreaker(t, "recover", map[string]any{
		"faultinject:error_rate": float64(1),
	})
	for i := 0; i < 3; i++ {
		_ = compressOnce(comp)
	}
	if b.state().Mode() != ModeOpen {
		t.Fatal("breaker did not open")
	}
	// Heal the child, then let the cooldown elapse on the fake clock.
	heal := core.NewOptions()
	heal.SetValue("faultinject:error_rate", float64(0))
	if err := comp.SetOptions(heal); err != nil {
		t.Fatal(err)
	}
	if err := compressOnce(comp); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown not elapsed yet, want rejection, got %v", err)
	}
	fc.Advance(1001 * time.Millisecond)
	if got := b.state().Mode(); got != ModeHalfOpen {
		t.Fatalf("after cooldown state is %v, want half-open", got)
	}
	if err := compressOnce(comp); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := b.state().Mode(); got != ModeClosed {
		t.Fatalf("after successful probe state is %v, want closed", got)
	}
	if trace.CounterValue(trace.CtrBreakerProbes) != 1 {
		t.Fatalf("probe counter %d, want 1", trace.CounterValue(trace.CtrBreakerProbes))
	}
	if trace.CounterValue(trace.CtrBreakerRecovered) != 1 {
		t.Fatalf("recovered counter %d, want 1", trace.CounterValue(trace.CtrBreakerRecovered))
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	comp, b, fc := newTestBreaker(t, "reopen", map[string]any{
		"faultinject:error_rate": float64(1),
	})
	for i := 0; i < 3; i++ {
		_ = compressOnce(comp)
	}
	fc.Advance(1001 * time.Millisecond)
	// Child still failing: the probe must send the circuit straight back to
	// open for a fresh cooldown.
	if err := compressOnce(comp); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe should reach the failing child, got %v", err)
	}
	if got := b.state().Mode(); got != ModeOpen {
		t.Fatalf("after failed probe state is %v, want open", got)
	}
	if trace.CounterValue(trace.CtrBreakerOpened) != 2 {
		t.Fatalf("opened counter %d, want 2 (initial trip + failed probe)",
			trace.CounterValue(trace.CtrBreakerOpened))
	}
}

func TestBreakerClonesShareScopeState(t *testing.T) {
	comp, _, _ := newTestBreaker(t, "fleet", map[string]any{
		"faultinject:error_rate": float64(1),
	})
	worker1 := comp.Clone()
	worker2 := comp.Clone()
	// All failures flow through worker1; worker2 must still see the trip.
	for i := 0; i < 3; i++ {
		_ = compressOnce(worker1)
	}
	if err := compressOnce(worker2); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("clone did not share the tripped state: %v", err)
	}
	// An independently constructed breaker with the same scope shares too.
	other, err := core.NewCompressor("breaker")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.SetValue(keyBreakerCompressor, "faultinject")
	o.SetValue(keyBreakerScope, "fleet")
	o.SetValue(keyBreakerWindow, uint64(8))
	o.SetValue(keyBreakerFailures, uint64(3))
	o.SetValue(keyBreakerOpenMS, int64(1000))
	o.SetValue(keyBreakerProbes, uint64(1))
	if err := other.SetOptions(o); err != nil {
		t.Fatal(err)
	}
	if err := compressOnce(other); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("same-scope breaker did not share the tripped state: %v", err)
	}
}

func TestBreakerOptionValidation(t *testing.T) {
	ResetShared()
	comp, err := core.NewCompressor("breaker")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(*core.Options){
		func(o *core.Options) { o.SetValue(keyBreakerWindow, uint64(0)) },
		func(o *core.Options) { o.SetValue(keyBreakerProbes, uint64(0)) },
		func(o *core.Options) { o.SetValue(keyBreakerOpenMS, int64(-1)) },
		func(o *core.Options) { o.SetValue(keyBreakerLatencyMS, int64(-5)) },
		func(o *core.Options) {
			o.SetValue(keyBreakerWindow, uint64(4))
			o.SetValue(keyBreakerFailures, uint64(9))
		},
	} {
		o := core.NewOptions()
		bad(o)
		if err := comp.CheckOptions(o); !errors.Is(err, core.ErrInvalidOption) {
			t.Errorf("CheckOptions(%v) = %v, want ErrInvalidOption", o.Keys(), err)
		}
	}
	// The read-only state option reports the live mode.
	opts := comp.Options()
	if s, err := opts.GetString(keyBreakerStateReport); err != nil || s != "closed" {
		t.Errorf("breaker:state = %q (%v), want closed", s, err)
	}
}

func TestBreakerLatencyThresholdCountsSlowCalls(t *testing.T) {
	comp, b, _ := newTestBreaker(t, "slow", map[string]any{
		keyBreakerLatencyMS:      int64(1),
		keyBreakerFailures:       uint64(2),
		"faultinject:delay_rate": float64(1),
		"faultinject:delay_ms":   int64(5),
	})
	// Calls succeed but take ~5ms against a 1ms limit: slow counts as failing.
	for i := 0; i < 2; i++ {
		if err := compressOnce(comp); err != nil {
			t.Fatalf("slow call %d errored: %v", i, err)
		}
	}
	if got := b.state().Mode(); got != ModeOpen {
		t.Fatalf("after slow calls state is %v, want open", got)
	}
}

// A call that failed because its own caller cancelled it says nothing about
// the callee: Call leaves the outcome window alone and hands a half-open
// probe slot back, so cancellations can neither trip nor wedge the circuit.
// An expired deadline is the callee being too slow and still counts.
func TestBreakerCallAbandonsCancelledCalls(t *testing.T) {
	ResetShared()
	clk := NewFakeClock(time.Unix(0, 0))
	st := NewSharedBreaker("abandon", BreakerConfig{Window: 4, Failures: 2, Cooldown: time.Second, Probes: 1})
	st.SetClock(clk)
	boom := func() error { return errors.New("boom") }

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 8; i++ {
		if _, recorded, err := st.Call(cancelled, boom); recorded || err == nil {
			t.Fatalf("cancelled call %d: recorded=%v err=%v, want abandoned with its error", i, recorded, err)
		}
	}
	if st.Mode() != ModeClosed {
		t.Fatalf("mode %v after 8 cancelled calls, want closed", st.Mode())
	}
	// A cancelled caller whose call succeeded anyway is an ordinary success.
	if _, recorded, err := st.Call(cancelled, func() error { return nil }); !recorded || err != nil {
		t.Fatalf("successful call under a cancelled ctx: recorded=%v err=%v", recorded, err)
	}

	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for i := 0; i < 2; i++ {
		if _, recorded, _ := st.Call(expired, boom); !recorded {
			t.Fatal("a call that outlived its caller's deadline must count against the callee")
		}
	}
	if st.Mode() != ModeOpen {
		t.Fatalf("mode %v after 2 deadline failures, want open", st.Mode())
	}

	// Half-open: the cancelled probe hands its slot back, so the next call
	// is admitted as the probe and its success closes the circuit.
	clk.Advance(2 * time.Second)
	if _, recorded, _ := st.Call(cancelled, boom); recorded {
		t.Fatal("cancelled probe was recorded")
	}
	if st.Mode() != ModeHalfOpen {
		t.Fatalf("mode %v after a cancelled probe, want half-open", st.Mode())
	}
	ran := false
	if _, recorded, err := st.Call(context.Background(), func() error { ran = true; return nil }); !ran || !recorded || err != nil {
		t.Fatalf("probe after a cancelled probe: ran=%v recorded=%v err=%v", ran, recorded, err)
	}
	if st.Mode() != ModeClosed {
		t.Fatalf("mode %v after a successful probe, want closed", st.Mode())
	}

	// Rejections are typed and never run the call.
	st2 := NewSharedBreaker("abandon-reject", BreakerConfig{Window: 1, Failures: 1, Cooldown: time.Minute})
	_, _, _ = st2.Call(context.Background(), boom)
	_, recorded, err := st2.Call(context.Background(), func() error { t.Fatal("rejected call ran"); return nil })
	if recorded || !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, core.ErrShed) {
		t.Fatalf("open circuit: recorded=%v err=%v", recorded, err)
	}
}
