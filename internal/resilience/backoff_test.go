package resilience

import (
	"testing"
	"time"
)

func TestBackoffDefaultsAndCap(t *testing.T) {
	var b Backoff // all defaults: 1ms initial, 250ms cap, no jitter
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
	}
	for i, w := range want {
		if d := b.Delay(i); d != w {
			t.Errorf("Delay(%d) = %v, want %v", i, d, w)
		}
	}
	if d := b.Delay(20); d != 250*time.Millisecond {
		t.Errorf("Delay(20) = %v, want cap 250ms", d)
	}
}

func TestBackoffCustomCap(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Max: 35 * time.Millisecond}
	if d := b.Delay(1); d != 20*time.Millisecond {
		t.Errorf("Delay(1) = %v", d)
	}
	for i := 2; i < 10; i++ {
		if d := b.Delay(i); d > 35*time.Millisecond {
			t.Errorf("Delay(%d) = %v exceeds cap", i, d)
		}
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	b := Backoff{Initial: 8 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 7}
	for i := 0; i < 8; i++ {
		base := 8 * time.Millisecond << uint(i)
		if base > time.Second {
			base = time.Second
		}
		d := b.Delay(i)
		if d > base {
			t.Errorf("Delay(%d) = %v exceeds undithered delay %v", i, d, base)
		}
		if d < base/2 {
			t.Errorf("Delay(%d) = %v below base-span floor %v", i, d, base/2)
		}
		if again := b.Delay(i); again != d {
			t.Errorf("Delay(%d) not deterministic: %v then %v", i, d, again)
		}
	}
}

func TestBackoffSeedsDesynchronize(t *testing.T) {
	a := Backoff{Initial: 16 * time.Millisecond, Jitter: 1, Seed: 1}
	b := Backoff{Initial: 16 * time.Millisecond, Jitter: 1, Seed: 2}
	differ := false
	for i := 0; i < 5; i++ {
		if a.Delay(i) != b.Delay(i) {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds produced identical schedules")
	}
}

// TestBackoffDelayGolden pins the jittered schedule for one seed: retry
// schedules are reproducible across builds, not only within one.
func TestBackoffDelayGolden(t *testing.T) {
	b := Backoff{Initial: time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5, Seed: 42}
	want := []time.Duration{925727, 1615671, 3133604, 5315587, 13164898, 28549578, 54941766, 68006274}
	for i, w := range want {
		if d := b.Delay(i); d != w {
			t.Errorf("Delay(%d) = %d, want %d", i, d, w)
		}
	}
}
