package resilience

import (
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// guarded builds the child c and runs op(child, in, out) behind the two
// framework-boundary protections: a panic barrier (a panicking plugin becomes
// a core.ErrPanicked error, it never unwinds into the caller) and, when
// deadline > 0, a watchdog that abandons the call and returns core.ErrTimeout
// once the deadline passes. It returns the child that ran op.
//
// Go cannot kill a goroutine, so a timed-out op keeps running detached until
// it finishes on its own. guarded therefore owns everything such a call may
// still touch: an armed call reads a private copy of in, writes only out,
// which must be a fresh target the caller adopts on success alone, and runs
// on a child instance that a timeout drops, so the next call builds its own.
func guarded(deadline time.Duration, c *childComp, op func(comp *core.Compressor, in, out *core.Data) error, in, out *core.Data) (*core.Compressor, error) {
	comp, err := c.Get()
	if err != nil {
		return nil, err
	}
	if deadline <= 0 {
		return comp, recoverToError(func() error { return op(comp, in, out) })
	}
	own := in.Clone()
	done := make(chan error, 1)
	go func() { done <- recoverToError(func() error { return op(comp, own, out) }) }()
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	select {
	case err := <-done:
		return comp, err
	case <-watchdog.C:
		trace.CounterAdd(trace.CtrGuardTimeouts, 1)
		c.Drop()
		return nil, fmt.Errorf("resilience: %w after %s", core.ErrTimeout, deadline)
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
