package service

import "time"

// Clock abstracts the wall clock so overload policy (breaker cooldowns,
// queue-wait estimates) can be driven deterministically in tests. Production
// code uses RealClock; tests inject a *FakeClock and advance it explicitly,
// which is what lets a chaos schedule replay bit-for-bit.
type Clock interface {
	Now() time.Time
}

// RealClock reads the system clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }
