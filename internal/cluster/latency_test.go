package cluster

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestLatencyWindowQuantile(t *testing.T) {
	w := newLatencyWindow()
	if got := w.quantile(0.99); got != 0 {
		t.Fatalf("empty window p99 = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		w.observe(time.Duration(i) * time.Millisecond)
	}
	if got := w.quantile(0.5); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := w.quantile(0.99); got < 95*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
}

func TestLatencyWindowWrapsAround(t *testing.T) {
	w := newLatencyWindow()
	// Fill with slow samples, then overwrite the whole ring with fast ones:
	// the p99 must forget the old regime.
	for i := 0; i < latencyWindowSize; i++ {
		w.observe(time.Second)
	}
	for i := 0; i < latencyWindowSize; i++ {
		w.observe(time.Millisecond)
	}
	if got := w.quantile(0.99); got != time.Millisecond {
		t.Fatalf("p99 after full wrap = %v, want 1ms", got)
	}
}

func TestHedgeDelayClamps(t *testing.T) {
	w := newLatencyWindow()
	floor, ceiling := 25*time.Millisecond, 2*time.Second

	// Cold window: floor applies (never hedge instantly).
	if got := w.hedgeDelay(floor, ceiling); got != floor {
		t.Fatalf("cold hedge delay = %v, want floor %v", got, floor)
	}
	// Fast peer: p99 below the floor still hedges no earlier than the floor.
	for i := 0; i < 64; i++ {
		w.observe(time.Millisecond)
	}
	if got := w.hedgeDelay(floor, ceiling); got != floor {
		t.Fatalf("fast-peer hedge delay = %v, want floor %v", got, floor)
	}
	// Pathological peer: p99 above the ceiling is capped.
	for i := 0; i < latencyWindowSize; i++ {
		w.observe(10 * time.Second)
	}
	if got := w.hedgeDelay(floor, ceiling); got != ceiling {
		t.Fatalf("slow-peer hedge delay = %v, want ceiling %v", got, ceiling)
	}
}

// TestLatencyWindowQuantileMatchesReference: over random windows, partly
// filled and wrapped, quantile picks the element a full sort of the live
// samples puts at index q*(n-1), so the hedge delay is what it always was.
func TestLatencyWindowQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := newLatencyWindow()
		n := 1 + rng.Intn(3*latencyWindowSize)
		for i := 0; i < n; i++ {
			w.observe(time.Duration(rng.Int63n(int64(time.Second))))
		}
		live := append([]time.Duration(nil), w.samples[:w.filled]...)
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			want := live[int(q*float64(len(live)-1))]
			if got := w.quantile(q); got != want {
				t.Fatalf("trial %d (%d samples): quantile(%v) = %v, want %v", trial, n, q, got, want)
			}
		}
	}
}

// TestLatencyWindowQuantileAllocsNothing: the hedge delay is read on every
// routed request, so a full window sorts without a heap copy.
func TestLatencyWindowQuantileAllocsNothing(t *testing.T) {
	w := newLatencyWindow()
	for i := 0; i < latencyWindowSize; i++ {
		w.observe(time.Duration(latencyWindowSize-i) * time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = w.quantile(0.99) }); allocs != 0 {
		t.Fatalf("quantile allocates %v times per call, want 0", allocs)
	}
}
