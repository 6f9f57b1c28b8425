package daemon

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"pressio/internal/obslog"
)

// component is one separately started piece of the daemon.
type component struct {
	name string
	// start brings the piece up; ctx bounds startup only. A long-running
	// piece owns its run lifetime and joins it in stop.
	start func(context.Context) error
	stop  func(context.Context) error
	// ready, when set, is a readiness notion beyond "start returned nil" (a
	// health checker mid-first-sweep, a store mid-recovery).
	ready func() bool
}

// startList is the daemon's components in the order New wrote them down:
// store → health → router → listener, each present only in the mode that
// needs it. They start in that order, so everything a request can reach is
// up before the listener accepts one, and stop in exact reverse, so the
// listener has drained before anything behind it goes away.
type startList struct {
	comps []component
	// started counts the leading components that are up. /readyz reads it
	// from request goroutines while a drain walks it down.
	started atomic.Int32
}

// start brings every component up in order. If one fails, those already up
// are stopped in reverse and the start error is returned (joined with any
// stop errors).
func (l *startList) start(ctx context.Context) error {
	for _, c := range l.comps {
		if err := c.start(ctx); err != nil {
			return errors.Join(fmt.Errorf("daemon: start %q: %w", c.name, err), l.stop(ctx))
		}
		obslog.Default().Debugw("daemon.component.started", obslog.Str("component", c.name))
		l.started.Add(1)
	}
	return nil
}

// stop takes the started components down in exact reverse start order. All
// stop errors are joined; every component gets its chance to stop even when
// an earlier one fails. A second stop finds nothing started and is a no-op.
func (l *startList) stop(ctx context.Context) error {
	var errs []error
	for i := int(l.started.Load()) - 1; i >= 0; i-- {
		c := l.comps[i]
		if err := c.stop(ctx); err != nil {
			errs = append(errs, fmt.Errorf("daemon: stop %q: %w", c.name, err))
		}
		obslog.Default().Debugw("daemon.component.stopped", obslog.Str("component", c.name))
		l.started.Store(int32(i))
	}
	return errors.Join(errs...)
}

// ready reports aggregate readiness: every component has started and every
// one with a readiness notion of its own says yes.
func (l *startList) ready() bool {
	if int(l.started.Load()) != len(l.comps) {
		return false
	}
	for _, c := range l.comps {
		if c.ready != nil && !c.ready() {
			return false
		}
	}
	return true
}

// String lists the component names in start order (for the start log).
func (l *startList) String() string {
	names := make([]string, len(l.comps))
	for i, c := range l.comps {
		names[i] = c.name
	}
	return strings.Join(names, ",")
}
