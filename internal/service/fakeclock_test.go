package service

import (
	"sync"
	"time"
)

// FakeClock is a manually advanced Clock for deterministic tests.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{now: start} }

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// SetClock injects a test clock. Call before traffic flows.
func (s *BreakerState) SetClock(c Clock) {
	s.mu.Lock()
	s.clock = c
	s.mu.Unlock()
}
