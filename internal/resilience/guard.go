package resilience

import (
	"context"
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
// exponential backoff and deterministic jitter. It passes streams through
// unchanged: framing belongs to the chains that route on it (fallback, opt).
type guard struct {
	child      childComp
	deadline   time.Duration
	maxRetries uint64
	backoffCfg Backoff
}

func (p *guard) Prefix() string { return "guard" }

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
)

func (p *guard) Opts() core.Opts { return guardSchema.For(p) }

func (p *guard) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
	cfg.SetValue("guard:resilient", int32(1))
	return cfg
}

// withRetries runs op under the retry policy (Backoff.Retry): transient
// failures (core.IsTransient — explicit marks and timeouts) are re-attempted
// up to guard:max_retries times with backoff between attempts; permanent
// failures and exhausted budgets return immediately. Each attempt writes a
// fresh target of the given shape (see guarded), and the first success
// becomes out.
func (p *guard) withRetries(op func(comp *core.Compressor, in, out *core.Data) error, in, out *core.Data, dt core.DType, dims ...uint64) error {
	//lint:ignore ctxflow the plugin interface carries no context; guard:max_retries and the backoff cap bound the loop instead
	return p.backoffCfg.Retry(context.Background(), int(p.maxRetries)+1, func(try int) error {
		if try > 0 {
			trace.CounterAdd(trace.CtrGuardRetries, 1)
		}
		target := core.NewEmpty(dt, dims...)
		if _, err := guarded(p.deadline, &p.child, op, in, target); err != nil {
			return err
		}
		out.Become(target)
		return nil
	})
}

func (p *guard) CompressImpl(in, out *core.Data) error {
	return p.withRetries((*core.Compressor).Compress, in, out, core.DTypeByte, 0)
}

func (p *guard) DecompressImpl(in, out *core.Data) error {
	return p.withRetries((*core.Compressor).Decompress, core.NewBytes(in.Bytes()), out, out.DType(), out.Dims()...)
}

func (p *guard) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
