package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pressio/internal/core"
)

// Option keys the breaker meta-compressor owns.
const (
	keyBreakerCompressor  = "breaker:compressor"
	keyBreakerScope       = "breaker:scope"
	keyBreakerWindow      = "breaker:window"
	keyBreakerFailures    = "breaker:failure_threshold"
	keyBreakerOpenMS      = "breaker:open_ms"
	keyBreakerProbes      = "breaker:halfopen_probes"
	keyBreakerLatencyMS   = "breaker:latency_threshold_ms"
	keyBreakerStateReport = "breaker:state"
)

// Version is the service meta-compressor family version.
const Version = "1.0.0"

// ErrBreakerOpen marks calls rejected because the circuit was open (or its
// half-open probe budget was spent). Returned errors wrap both this sentinel
// and core.ErrShed, so generic overload handling (a 503 in pressiod) and
// breaker-specific handling can each match with errors.Is.
var ErrBreakerOpen = errors.New("circuit breaker open")

// breakerWindowCap bounds the sliding window so a typo cannot allocate an
// absurd ring.
const breakerWindowCap = 1 << 16

func init() {
	core.RegisterCompressor("breaker", func() core.CompressorPlugin {
		return &breaker{
			child: core.Child[*core.Compressor]{Name: "sz_threadsafe"},
			cfg: BreakerConfig{
				Window:   16,
				Failures: 8,
				Cooldown: time.Second,
				Probes:   1,
			},
		}
	})
}

// breaker is the circuit-breaker meta-compressor: it passes calls to its
// child while the child is healthy, trips open after breaker:failure_threshold
// failures within the last breaker:window calls (slow calls count as failures
// when breaker:latency_threshold_ms is set), rejects instantly while open,
// and after breaker:open_ms admits breaker:halfopen_probes trial calls whose
// outcomes either close the circuit or re-open it.
//
// State lives in a shared per-scope BreakerState (scope defaults to the child
// compressor name), so clones — a CompressMany worker fleet, or independent
// breakers guarding the same backend — trip and recover together.
type breaker struct {
	child core.Child[*core.Compressor]
	scope string
	cfg   BreakerConfig
	st    *BreakerState
}

func (p *breaker) Prefix() string  { return "breaker" }
func (p *breaker) Version() string { return Version }

// breakerSchema is the breaker option table. Every tunable re-resolves the
// shared state on next use (the default scope follows the child name, and
// StateFor retunes an existing scope).
var breakerSchema = func() *core.Schema[breaker] {
	counts := core.Closed(1, breakerWindowCap)
	rows := []core.Row[breaker]{
		core.ChildRow(keyBreakerCompressor, "name of the guarded compressor; it receives every option set here",
			func(p *breaker) *core.Child[*core.Compressor] { return &p.child }),
		core.Field(keyBreakerScope, "name of the shared state; breakers with one scope trip together (default: the child name)", core.Bounds{},
			func(p *breaker) *string { return &p.scope }),
		core.NumAs[uint64](keyBreakerWindow, "sliding window length in calls", counts,
			func(p *breaker) *int { return &p.cfg.Window }),
		core.NumAs[uint64](keyBreakerFailures, "failures within the window that trip the circuit", counts,
			func(p *breaker) *int { return &p.cfg.Failures }),
		core.Millis(keyBreakerOpenMS, "how long the circuit stays open before probing", core.AtLeast(0),
			func(p *breaker) *time.Duration { return &p.cfg.Cooldown }),
		core.NumAs[uint64](keyBreakerProbes, "trial calls admitted half-open; that many successes close the circuit", counts,
			func(p *breaker) *int { return &p.cfg.Probes }),
		core.Millis(keyBreakerLatencyMS, "calls slower than this count as failures (0 = off)", core.AtLeast(0),
			func(p *breaker) *time.Duration { return &p.cfg.LatencyLimit }),
	}
	for i := range rows {
		rows[i] = rows[i].OnSet(func(p *breaker) { p.st = nil })
	}
	rows = append(rows, core.Report(keyBreakerStateReport, "current circuit state: closed, open or half-open",
		func(p *breaker) string { return p.state().Mode().String() }))
	return core.NewSchema(rows...).Validate(func(p *breaker) error {
		if p.cfg.Failures > p.cfg.Window {
			return fmt.Errorf("%w: %s %d exceeds %s %d (the circuit could never trip)",
				core.ErrInvalidOption, keyBreakerFailures, p.cfg.Failures, keyBreakerWindow, p.cfg.Window)
		}
		return nil
	})
}()

func (p *breaker) Options() *core.Options             { return breakerSchema.Options(p) }
func (p *breaker) SetOptions(o *core.Options) error   { return breakerSchema.Set(p, o) }
func (p *breaker) CheckOptions(o *core.Options) error { return breakerSchema.Check(p, o) }
func (p *breaker) Schema() []core.OptionSpec          { return breakerSchema.Specs() }

func (p *breaker) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
	cfg.SetValue("breaker:resilient", int32(1))
	return cfg
}

// state resolves the shared per-scope BreakerState, creating or retuning it
// on first use after a configuration change.
func (p *breaker) state() *BreakerState {
	if p.st == nil {
		scope := p.scope
		if scope == "" {
			scope = p.child.Name
		}
		p.st = StateFor(scope, p.cfg)
	}
	return p.st
}

// through runs one call against the child inside the shared circuit.
func (p *breaker) through(op func(*core.Compressor) error) error {
	var rejected error
	//lint:ignore ctxflow the plugin interface carries no context, so no caller can cancel (and so abandon) this call
	_, _, err := p.state().Call(context.Background(), func() error {
		// A child that cannot even be built counts as a failure: tripping
		// here stops a fleet from re-attempting a misconfigured backend.
		comp, err := p.child.Get()
		if err != nil {
			return err
		}
		// Bad input is the caller's fault, not the child's.
		if err = op(comp); core.IsBadInput(err) {
			rejected, err = err, nil
		}
		return err
	})
	if err == nil {
		err = rejected
	}
	return err
}

func (p *breaker) CompressImpl(in, out *core.Data) error {
	return p.through(func(comp *core.Compressor) error {
		tmp := core.NewEmpty(core.DTypeByte, 0)
		if err := comp.Compress(in, tmp); err != nil {
			return err
		}
		out.Become(tmp)
		return nil
	})
}

func (p *breaker) DecompressImpl(in, out *core.Data) error {
	return p.through(func(comp *core.Compressor) error {
		tmp := core.NewEmpty(out.DType(), out.Dims()...)
		if err := comp.Decompress(in, tmp); err != nil {
			return err
		}
		out.Become(tmp)
		return nil
	})
}

// Clone shares the scope state by construction.
func (p *breaker) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
