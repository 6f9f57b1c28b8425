package trace

import (
	"testing"
	"time"
)

// The ResetTelemetry retained-pointer contract: pointers obtained before a
// reset stay usable but are detached — their increments are invisible to the
// registry — and re-resolving by name yields the fresh live cell. Benchmark
// runs rely on this to reset cleanly between phases.

func TestResetDetachesCounterPointers(t *testing.T) {
	ResetTelemetry()
	defer ResetTelemetry()

	old := GetCounter("contract.counter")
	old.Add(5)
	if got := CounterValue("contract.counter"); got != 5 {
		t.Fatalf("pre-reset value %d, want 5", got)
	}

	ResetTelemetry()
	old.Add(100) // must not panic, must not resurrect the registry value
	if got := CounterValue("contract.counter"); got != 0 {
		t.Fatalf("post-reset registry value %d, want 0 (stale pointer leaked in)", got)
	}

	fresh := GetCounter("contract.counter")
	if fresh == old {
		t.Fatal("GetCounter returned the detached pre-reset pointer")
	}
	fresh.Add(2)
	if got := CounterValue("contract.counter"); got != 2 {
		t.Fatalf("fresh pointer value %d, want 2", got)
	}
	if old.Value() != 105 {
		t.Fatalf("detached pointer lost its own count: %d", old.Value())
	}
}

func TestResetDetachesHistogramPointers(t *testing.T) {
	ResetTelemetry()
	defer ResetTelemetry()

	old := GetHistogram("contract.hist")
	old.Observe(time.Millisecond)

	ResetTelemetry()
	old.Observe(time.Second) // usable but detached

	if s := Histograms()["contract.hist"]; s.Count != 0 {
		t.Fatalf("post-reset registry histogram count %d, want 0", s.Count)
	}
	fresh := GetHistogram("contract.hist")
	if fresh == old {
		t.Fatal("GetHistogram returned the detached pre-reset pointer")
	}
	fresh.Observe(2 * time.Millisecond)
	s := Histograms()["contract.hist"]
	if s.Count != 1 || s.Max != 2*time.Millisecond {
		t.Fatalf("fresh histogram snapshot %+v", s)
	}
	// The name-keyed helper always resolves the live cell, so it is the
	// reset-safe way to instrument code that spans phase boundaries.
	ObserveDuration("contract.hist", 3*time.Millisecond)
	if s := Histograms()["contract.hist"]; s.Count != 2 {
		t.Fatalf("ObserveDuration after reset: count %d, want 2", s.Count)
	}
}

func TestHistogramQuantileMeanEdges(t *testing.T) {
	// Empty histogram: everything is zero.
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 || empty.Quantile(1) != 0 {
		t.Error("empty histogram summaries not zero")
	}

	// Single observation: mean is the observation, every in-range quantile
	// is its power-of-two upper bound, p<=0 is zero.
	var one Histogram
	one.Observe(700 * time.Nanosecond) // bucket 10: [512, 1024)
	s := one.snapshot()
	if s.Mean() != 700*time.Nanosecond {
		t.Errorf("single-observation mean %v", s.Mean())
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("p=0 quantile %v, want 0", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Errorf("negative-p quantile %v, want 0", got)
	}
	for _, p := range []float64{0.001, 0.5, 1} {
		if got := s.Quantile(p); got != 1024*time.Nanosecond {
			t.Errorf("Quantile(%v) = %v, want 1024ns bucket bound", p, got)
		}
	}

	// p=0 vs p=1 on a spread distribution: monotone and bounded by Max's
	// bucket.
	var spread Histogram
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 100 * time.Millisecond} {
		spread.Observe(d)
	}
	ss := spread.snapshot()
	if p50, p100 := ss.Quantile(0.5), ss.Quantile(1); p50 > p100 {
		t.Errorf("quantiles not monotone: p50 %v > p100 %v", p50, p100)
	}
	if got := ss.Quantile(1); got < 100*time.Millisecond {
		t.Errorf("p=1 quantile %v below the largest observation", got)
	}

	// Overflow bucket: observations at/beyond 2^38 ns land in the last
	// bucket, which is unbounded — quantiles falling there must report the
	// true Max, not the fictitious 2^39 boundary.
	var over Histogram
	huge := 2 * time.Hour
	over.Observe(huge)
	os := over.snapshot()
	if os.Buckets[histBuckets-1] != 1 {
		t.Fatalf("2h observation not in overflow bucket: %+v", os.Buckets)
	}
	if got := os.Quantile(0.99); got != huge {
		t.Errorf("overflow-bucket quantile %v, want Max %v", got, huge)
	}
	if os.Mean() != huge {
		t.Errorf("overflow mean %v, want %v", os.Mean(), huge)
	}

	// Mixed: one normal and one overflow observation; p=1 must hit Max.
	over.Observe(time.Millisecond)
	os = over.snapshot()
	if got := os.Quantile(1); got != huge {
		t.Errorf("mixed p=1 quantile %v, want Max %v", got, huge)
	}
	wantMean := (huge + time.Millisecond) / 2
	if os.Mean() != wantMean {
		t.Errorf("mixed mean %v, want %v", os.Mean(), wantMean)
	}
}
