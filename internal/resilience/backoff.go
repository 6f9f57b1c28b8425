package resilience

import (
	"context"
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/stats"
)

// Backoff computes capped-exponential retry delays with deterministic
// jitter. It is a value type: plugins embed one per instance and Clone gets
// an independent copy, so no state is shared across goroutines.
type Backoff struct {
	// Initial is the delay before the first retry (default 1ms).
	Initial time.Duration
	// Max caps the exponential growth (default 250ms).
	Max time.Duration
	// Jitter in [0,1] is the fraction of each delay that is randomized
	// (default 0 — fully deterministic).
	Jitter float64
	// Seed drives the jitter PRNG so retry schedules are reproducible.
	Seed int64
}

// Delay returns the sleep before retry attempt (0-based). The base delay is
// Initial*2^attempt capped at Max; Jitter replaces up to that fraction of
// the delay with a seeded pseudo-random amount, so concurrent retriers with
// different seeds spread out while a fixed seed reproduces exactly.
func (b Backoff) Delay(attempt int) time.Duration {
	initial := b.Initial
	if initial <= 0 {
		initial = time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := initial
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		span := float64(d) * j
		state := uint64(attempt)
		state = uint64(b.Seed) ^ stats.SplitMix64(&state)
		r := stats.SplitMix64(&state)
		// Map r into [0, span): the jittered delay is d - span + [0, span),
		// i.e. "equal jitter" biased low so the cap is never exceeded.
		frac := float64(r%(1<<53)) / float64(uint64(1)<<53)
		d = time.Duration(float64(d) - span + span*frac)
	}
	return d
}

// Retry is the tree's one retry loop. It runs attempt (try is 0 for the
// first run) until it succeeds, fails with an error that is not
// core.IsTransient, has run tries times, or ctx is done. Between runs it
// sleeps b.Delay(try) and wakes early when ctx ends, returning the last
// attempt's error wrapped with ctx.Err(). Callers that have no context
// (plugins) pass context.Background().
func (b Backoff) Retry(ctx context.Context, tries int, attempt func(try int) error) error {
	for try := 0; ; try++ {
		err := attempt(try)
		if err == nil || try+1 >= tries || !core.IsTransient(err) || ctx.Err() != nil {
			return err
		}
		timer := time.NewTimer(b.Delay(try))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("%w (retry abandoned: %w)", err, ctx.Err())
		}
	}
}
