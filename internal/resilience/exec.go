package resilience

import (
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// runGuarded executes op behind the two framework-boundary protections:
// a panic barrier (a panicking plugin becomes a core.ErrPanicked error, it
// never unwinds into the caller) and, when deadline > 0, a watchdog that
// abandons the call and returns core.ErrTimeout once the deadline passes.
//
// Go cannot kill a goroutine, so a timed-out op keeps running detached until
// it finishes on its own; its eventual result is discarded (the channel is
// buffered) and its panic, if any, is still recovered. This mirrors what a
// watchdog can honestly promise over an uncooperative plugin: the *caller*
// regains control at the deadline.
func runGuarded(deadline time.Duration, op func() error) error {
	if deadline <= 0 {
		return recoverToError(op)
	}
	done := make(chan error, 1)
	go func() { done <- recoverToError(op) }()
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	select {
	case err := <-done:
		return err
	case <-watchdog.C:
		trace.CounterAdd(trace.CtrGuardTimeouts, 1)
		return fmt.Errorf("resilience: %w after %s", core.ErrTimeout, deadline)
	}
}

// recoverToError invokes op, converting a panic into a permanent error.
func recoverToError(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			trace.CounterAdd(trace.CtrGuardPanics, 1)
			err = fmt.Errorf("resilience: %w: %v", core.ErrPanicked, r)
		}
	}()
	return op()
}

// childComp is the wrapped compressor of guard and of each fallback tier.
type childComp = core.Child[*core.Compressor]
