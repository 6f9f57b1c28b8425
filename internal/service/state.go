package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pressio/internal/core"
	"pressio/internal/obslog"
	"pressio/internal/trace"
)

// BreakerMode enumerates the classic three circuit states.
type BreakerMode int

const (
	// ModeClosed passes traffic and records outcomes in a sliding window.
	ModeClosed BreakerMode = iota
	// ModeOpen rejects traffic fast until the cooldown elapses.
	ModeOpen
	// ModeHalfOpen admits a bounded number of trial probes; their outcomes
	// decide whether the circuit closes again or re-opens.
	ModeHalfOpen
)

// String returns the lowercase state name used in the read-only
// "breaker:state" option.
func (m BreakerMode) String() string {
	switch m {
	case ModeClosed:
		return "closed"
	case ModeOpen:
		return "open"
	case ModeHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig is the tunable half of a breaker's behavior, shared by the
// breaker meta-compressor and callers outside it (the cluster peer client
// guards each HTTP peer with one).
type BreakerConfig struct {
	// Window is the sliding outcome window length in calls.
	Window int
	// Failures within the window trip the circuit.
	Failures int
	// Cooldown is the open → half-open delay.
	Cooldown time.Duration
	// Probes is the half-open trial budget; that many successes close.
	Probes int
	// LatencyLimit, when >0, counts slower-than-this calls as failures.
	LatencyLimit time.Duration
}

// BreakerState is the shared, mutex-protected state machine behind one
// breaker scope. Every clone of a breaker plugin (e.g. the worker fleet a
// CompressMany spawns) holds the same *BreakerState, so one worker's
// failures protect all of them and one worker's successful probe re-opens
// traffic for all of them.
type BreakerState struct {
	mu    sync.Mutex
	clock Clock
	cfg   BreakerConfig
	scope string

	mode      BreakerMode
	outcomes  []bool // ring buffer, true = failure
	next      int    // ring cursor
	filled    int    // valid entries in the ring
	failCount int    // failures currently in the ring
	openUntil time.Time

	probesInFlight int
	probeSuccesses int
}

// Mode returns the current state, applying the open→half-open transition if
// the cooldown has elapsed (so introspection agrees with admission).
func (s *BreakerState) Mode() BreakerMode {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeHalfOpen()
	return s.mode
}

// configure replaces the tunables, resizing the window ring. The circuit
// position (open/half-open) is preserved; the recorded window restarts.
func (s *BreakerState) configure(cfg BreakerConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg == s.cfg {
		return
	}
	s.cfg = cfg
	s.outcomes = make([]bool, cfg.Window)
	s.next, s.filled, s.failCount = 0, 0, 0
}

// maybeHalfOpen transitions open → half-open when the cooldown has elapsed.
// Callers must hold s.mu.
func (s *BreakerState) maybeHalfOpen() {
	if s.mode == ModeOpen && !s.clock.Now().Before(s.openUntil) {
		s.mode = ModeHalfOpen
		s.probesInFlight = 0
		s.probeSuccesses = 0
	}
}

// trip opens the circuit now. Callers must hold s.mu. Logging is split out
// into tripEvent and deferred until the lock is released: the logger writes
// to an io.Writer, and holding the breaker mutex across that write would
// convoy every admission decision behind the log sink (blockinglock).
func (s *BreakerState) trip() {
	s.mode = ModeOpen
	s.openUntil = s.clock.Now().Add(s.cfg.Cooldown)
	s.next, s.filled, s.failCount = 0, 0, 0
	s.probesInFlight = 0
	s.probeSuccesses = 0
	trace.CounterAdd(trace.CtrBreakerOpened, 1)
	trace.CounterAdd(trace.BreakerScopeKey(s.scope), 1)
}

// tripEvent captures the trip log fields while s.mu is still held and
// returns the emission to run once it is released.
func (s *BreakerState) tripEvent() func() {
	scope, cooldown := s.scope, s.cfg.Cooldown
	window, failures := s.cfg.Window, s.cfg.Failures
	return func() {
		obslog.Default().Warn("breaker.trip",
			slog.String("scope", scope),
			obslog.Dur("cooldown", cooldown),
			slog.Int("window", window),
			slog.Int("failure_threshold", failures))
	}
}

// Call is the one way a call goes through the circuit: it asks for
// admission, runs fn against a stopwatch, and reports the outcome. An error
// for which core.IsBadInput holds is the caller's fault, not the callee's,
// so that call counts as answered. A rejected call returns an error wrapping
// ErrBreakerOpen and core.ErrShed without running fn. recorded tells the
// caller whether the outcome entered the circuit's accounting: it is false
// for a rejection and for an abandoned call — one that failed after the
// caller itself cancelled ctx (a hedge loser, a client that went away). Such
// a failure says nothing about the callee, so a half-open probe slot is
// handed back and the outcome window is left alone. An expired deadline is
// not abandonment: the callee was slower than the caller could wait, which
// is what the circuit exists to notice.
//
// Latency is measured on the real clock — the injectable Clock drives
// cooldown arithmetic, not stopwatch reads, and error-driven chaos schedules
// stay deterministic either way.
func (s *BreakerState) Call(ctx context.Context, fn func() error) (elapsed time.Duration, recorded bool, err error) {
	probe, ok := s.allow()
	if !ok {
		return 0, false, fmt.Errorf("breaker[%s]: %w (%w)", s.scope, ErrBreakerOpen, core.ErrShed)
	}
	begin := time.Now()
	err = fn()
	elapsed = time.Since(begin)
	failed := err != nil && !core.IsBadInput(err)
	if failed && errors.Is(ctx.Err(), context.Canceled) {
		s.abandon(probe)
		return elapsed, false, err
	}
	s.done(probe, failed, elapsed)
	return elapsed, true, err
}

// abandon hands back the half-open probe slot of a call whose outcome is
// not being recorded, so the next caller is admitted as the probe instead of
// the circuit waiting forever on a result that will never arrive.
func (s *BreakerState) abandon(probe bool) {
	if !probe {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == ModeHalfOpen && s.probesInFlight > 0 {
		s.probesInFlight--
	}
}

// allow decides whether one call may proceed. It returns probe=true when the
// call is a half-open trial (the caller must report its outcome via done with
// the same flag), and ok=false when the circuit rejects the call outright.
func (s *BreakerState) allow() (probe, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeHalfOpen()
	switch s.mode {
	case ModeClosed:
		return false, true
	case ModeHalfOpen:
		if s.probesInFlight < s.cfg.Probes {
			s.probesInFlight++
			trace.CounterAdd(trace.CtrBreakerProbes, 1)
			return true, true
		}
		trace.CounterAdd(trace.CtrBreakerRejected, 1)
		return false, false
	default: // ModeOpen
		trace.CounterAdd(trace.CtrBreakerRejected, 1)
		return false, false
	}
}

// done records the outcome of a call previously admitted by allow. latency
// is compared against the configured latency limit: a technically successful
// but too-slow call counts as a failure (a stalling dependency should trip
// the breaker before timeouts cascade).
func (s *BreakerState) done(probe, failed bool, latency time.Duration) {
	failure := failed ||
		(s.cfg.LatencyLimit > 0 && latency > s.cfg.LatencyLimit)
	if emit := s.record(probe, failure); emit != nil {
		emit()
	}
}

// record applies one call outcome under s.mu and returns the log emission to
// run after the lock is released (nil when the outcome logs nothing). State
// transitions log; logging does I/O; I/O must not happen inside the critical
// section — so the locked half decides and the unlocked half speaks.
func (s *BreakerState) record(probe, failure bool) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if probe {
		// A probe outcome is meaningful in half-open only; if another probe
		// already re-opened the circuit, this result arrives late and the
		// breaker ignores it (the next half-open round will re-probe).
		if s.mode != ModeHalfOpen {
			return nil
		}
		s.probesInFlight--
		if failure {
			s.trip()
			return s.tripEvent()
		}
		s.probeSuccesses++
		if s.probeSuccesses >= s.cfg.Probes {
			s.mode = ModeClosed
			s.next, s.filled, s.failCount = 0, 0, 0
			trace.CounterAdd(trace.CtrBreakerRecovered, 1)
			scope := s.scope
			return func() {
				obslog.Default().Info("breaker.recover", slog.String("scope", scope))
			}
		}
		return nil
	}
	if s.mode != ModeClosed {
		// A non-probe call that was admitted while closed but finished after
		// the circuit opened: its outcome no longer matters.
		return nil
	}
	if s.filled == len(s.outcomes) && s.outcomes[s.next] {
		s.failCount--
	}
	if s.filled < len(s.outcomes) {
		s.filled++
	}
	s.outcomes[s.next] = failure
	s.next = (s.next + 1) % len(s.outcomes)
	if failure {
		s.failCount++
		if s.failCount >= s.cfg.Failures {
			s.trip()
			return s.tripEvent()
		}
	}
	return nil
}

// The scope registry: breakers created with the same "breaker:scope" (which
// defaults to the child compressor name) share one BreakerState even when
// they were constructed independently, so every path to a failing component
// trips together.
var (
	sharedMu sync.Mutex
	shared   = map[string]*BreakerState{}
)

// StateFor returns the shared BreakerState registered under scope, creating
// it with the given config on first use. Later callers with a different
// config retune the existing state (last writer wins), which keeps a fleet
// of clones coherent when options change.
func StateFor(scope string, cfg BreakerConfig) *BreakerState {
	sharedMu.Lock()
	st, ok := shared[scope]
	if !ok {
		st = &BreakerState{
			clock:    RealClock{},
			cfg:      cfg,
			scope:    scope,
			outcomes: make([]bool, cfg.Window),
		}
		shared[scope] = st
	}
	sharedMu.Unlock()
	if ok {
		st.configure(cfg)
	}
	return st
}

// ResetShared drops every registered breaker state (tests only: the registry
// is process-global on purpose).
func ResetShared() {
	sharedMu.Lock()
	shared = map[string]*BreakerState{}
	sharedMu.Unlock()
}
