package cluster

import (
	"slices"
	"sync"
	"time"
)

// latencyWindow is a fixed-size ring of a peer's recent round-trip times.
// The router derives each peer's hedge delay from its p99: hedge only when
// the primary is slower than essentially all of its recent history.
type latencyWindow struct {
	mu      sync.Mutex
	samples []time.Duration // ring buffer
	next    int
	filled  int
}

// latencyWindowSize bounds the history per peer. 128 samples make the p99
// track roughly the slowest-of-the-last-128, which adapts within a couple of
// seconds under steady load yet ignores one-off spikes.
const latencyWindowSize = 128

func newLatencyWindow() *latencyWindow {
	return &latencyWindow{samples: make([]time.Duration, latencyWindowSize)}
}

// observe records one round-trip time.
func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.next] = d
	w.next = (w.next + 1) % len(w.samples)
	if w.filled < len(w.samples) {
		w.filled++
	}
	w.mu.Unlock()
}

// quantile returns the q-quantile (0..1) of the recorded window, or 0 when
// no samples exist yet.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	if w.filled == 0 {
		w.mu.Unlock()
		return 0
	}
	// A fixed-size copy stays on the stack: the hedge delay is read on
	// every routed request.
	var buf [latencyWindowSize]time.Duration
	tmp := buf[:copy(buf[:], w.samples[:w.filled])]
	w.mu.Unlock()
	slices.Sort(tmp)
	idx := int(q * float64(len(tmp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// hedgeDelay maps the window to a hedge trigger: p99 clamped to
// [floor, ceiling]. Before any samples exist the floor applies, so a cold
// router hedges conservatively instead of instantly doubling its traffic.
func (w *latencyWindow) hedgeDelay(floor, ceiling time.Duration) time.Duration {
	d := w.quantile(0.99)
	if d < floor {
		d = floor
	}
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	return d
}
