package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the guard meta-compressor owns.
const (
	keyGuardCompressor       = "guard:compressor"
	keyGuardDeadlineMS       = "guard:deadline_ms"
	keyGuardMaxRetries       = "guard:max_retries"
	keyGuardBackoffInitialMS = "guard:backoff_initial_ms"
	keyGuardBackoffMaxMS     = "guard:backoff_max_ms"
	keyGuardBackoffJitter    = "guard:backoff_jitter"
	keyGuardSeed             = "guard:seed"
	keyGuardFrame            = "guard:frame"
)

// Version is the resilience meta-compressor family version.
const Version = "1.0.0"

func init() {
	core.RegisterCompressor("guard", func() core.CompressorPlugin {
		return &guard{child: childComp{Name: "sz_threadsafe"}, maxRetries: 2}
	})
}

// guard wraps any child compressor with the containment policy a production
// pipeline wants at every plugin boundary: panics become errors, a watchdog
// enforces a per-call deadline, transient failures are retried with capped
// exponential backoff and deterministic jitter, and (optionally) the
// compressed stream is wrapped in an integrity-checked frame validated
// before decompression.
type guard struct {
	child      childComp
	deadline   time.Duration
	maxRetries uint64
	backoffCfg Backoff
	frame      bool
}

func (p *guard) Prefix() string  { return "guard" }
func (p *guard) Version() string { return Version }

var guardSchema = core.NewSchema(
	core.ChildRow(keyGuardCompressor, "name of the guarded compressor; it receives every option set here",
		func(p *guard) *childComp { return &p.child }),
	core.Millis(keyGuardDeadlineMS, "per-call watchdog deadline (0 = none)", core.AtLeast(0),
		func(p *guard) *time.Duration { return &p.deadline }),
	core.Field(keyGuardMaxRetries, "re-attempts after a transient failure", core.Closed(0, 1<<16),
		func(p *guard) *uint64 { return &p.maxRetries }),
	core.Millis(keyGuardBackoffInitialMS, "delay before the first retry", core.Bounds{},
		func(p *guard) *time.Duration { return &p.backoffCfg.Initial }),
	core.Millis(keyGuardBackoffMaxMS, "cap on the exponential backoff", core.Bounds{},
		func(p *guard) *time.Duration { return &p.backoffCfg.Max }),
	core.Field(keyGuardBackoffJitter, "fraction of each delay randomised", core.Closed(0, 1),
		func(p *guard) *float64 { return &p.backoffCfg.Jitter }),
	core.Field(keyGuardSeed, "seed of the jitter PRNG", core.Bounds{},
		func(p *guard) *int64 { return &p.backoffCfg.Seed }),
	core.Flag(keyGuardFrame, "wrap streams in an integrity-checked frame",
		func(p *guard) *bool { return &p.frame }),
)

func (p *guard) Options() *core.Options             { return guardSchema.Options(p) }
func (p *guard) SetOptions(o *core.Options) error   { return guardSchema.Set(p, o) }
func (p *guard) CheckOptions(o *core.Options) error { return guardSchema.Check(p, o) }
func (p *guard) Schema() []core.OptionSpec          { return guardSchema.Specs() }

func (p *guard) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
	cfg.SetValue("guard:resilient", int32(1))
	return cfg
}

// withRetries runs one attempt function under the retry policy
// (Backoff.Retry): transient failures (core.IsTransient — explicit marks and
// timeouts) are re-attempted up to guard:max_retries times with backoff
// between attempts; permanent failures and exhausted budgets return
// immediately. After a watchdog timeout the timed-out call keeps running
// detached on the old child instance (Go cannot kill a goroutine), so that
// instance is discarded and the retry — like every later call — gets a
// freshly constructed child. Attempts must therefore write only into buffers
// they allocate themselves and publish results on success, never share a
// target with a previous attempt.
func (p *guard) withRetries(attempt func(comp *core.Compressor) error) error {
	//lint:ignore ctxflow the plugin interface carries no context; guard:max_retries and the backoff cap bound the loop instead
	return p.backoffCfg.Retry(context.Background(), int(p.maxRetries)+1, func(try int) error {
		if try > 0 {
			trace.CounterAdd(trace.CtrGuardRetries, 1)
		}
		comp, err := p.child.Get()
		if err != nil {
			return err
		}
		err = attempt(comp)
		if errors.Is(err, core.ErrTimeout) {
			// The timed-out call is still running detached on this instance;
			// discard it even when returning, so no later call shares it.
			p.child.Drop()
		}
		return err
	})
}

func (p *guard) CompressImpl(in, out *core.Data) error {
	var result *core.Data
	var prefix string
	err := p.withRetries(func(comp *core.Compressor) error {
		tmp := core.NewEmpty(core.DTypeByte, 0)
		if err := runGuarded(p.deadline, func() error { return comp.Compress(in, tmp) }); err != nil {
			return err
		}
		result = tmp
		prefix = comp.Prefix()
		return nil
	})
	if err != nil {
		return err
	}
	if p.frame {
		return WriteFrame(out, prefix, in, result)
	}
	out.Become(result)
	return nil
}

func (p *guard) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	payload := in.Bytes()
	hintDT, hintDims := out.DType(), out.Dims()
	if p.frame || IsFramed(payload) {
		f, err := DecodeFrame(payload)
		switch {
		case err != nil && !p.frame:
			// guard:frame is off, so this payload was only suspected to be a
			// frame from its first four bytes. A raw child stream can collide
			// with the magic; treat an undecodable "frame" as that collision
			// and hand the raw payload to the child unchanged.
		case err != nil:
			trace.CounterAdd(trace.CtrFrameCorrupt, 1)
			return err
		default:
			switch {
			case f.Prefix == comp.Prefix():
				payload = f.Payload
			case p.frame:
				// The guard wrapped this stream itself, so a mismatched
				// producer is corruption, not composition.
				return fmt.Errorf("resilience: %w: frame produced by %q, guard child is %q",
					core.ErrCorrupt, f.Prefix, comp.Prefix())
			default:
				// Auto-detected frame from a different producer: leave the
				// frame intact for a frame-aware child (e.g. a fallback chain
				// that routes on the recorded tier prefix).
			}
			if hintDT == core.DTypeUnset || len(hintDims) == 0 {
				// The frame self-describes the decompressed shape; use it
				// when the caller provided no hint.
				hintDT, hintDims = f.DType, f.Dims
			}
		}
	}
	// Each attempt decompresses into its own buffer: after a timeout the
	// abandoned call may still be writing its target, so a shared one would
	// race with the retry.
	var result *core.Data
	err = p.withRetries(func(comp *core.Compressor) error {
		tmp := core.NewEmpty(hintDT, hintDims...)
		if err := runGuarded(p.deadline, func() error {
			return comp.Decompress(core.NewBytes(payload), tmp)
		}); err != nil {
			return err
		}
		result = tmp
		return nil
	})
	if err != nil {
		return err
	}
	out.Become(result)
	return nil
}

func (p *guard) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
