package resilience

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the fallback meta-compressor owns.
const (
	keyFallbackCompressors = "fallback:compressors"
	keyFallbackDeadlineMS  = "fallback:deadline_ms"
	keyFallbackVerify      = "fallback:verify"
	keyFallbackVerifyAbs   = "fallback:verify_abs"
	keyFallbackLastTier    = "fallback:last_tier"
)

func init() {
	core.RegisterCompressor("fallback", func() core.CompressorPlugin {
		return &fallback{tiers: Chain{}.renamed("sz_threadsafe,zfp,noop")}
	})
}

// fallback is the graceful-degradation meta-compressor: an ordered chain of
// tiers tried in preference order. A tier that errors, panics, exceeds the
// per-tier deadline, or fails the optional round-trip verification gate is
// skipped and the next tier serves the call. Streams are framed (see
// frame.go) with the producing tier's prefix so decompression routes back to
// the tier that actually compressed each buffer — a chain can therefore mix
// tiers freely across a batch and still decompress everything.
type fallback struct {
	tiers     Chain
	deadline  time.Duration
	verify    bool
	verifyAbs float64
	lastTier  string
}

func (p *fallback) Prefix() string { return "fallback" }

var fallbackSchema = core.NewSchema(
	ChainRow(keyFallbackCompressors, "comma-separated tiers in preference order; each receives every option set here",
		func(p *fallback) *Chain { return &p.tiers }),
	core.Millis(keyFallbackDeadlineMS, "per-tier watchdog deadline (0 = none)", core.AtLeast(0),
		func(p *fallback) *time.Duration { return &p.deadline }),
	core.Flag(keyFallbackVerify, "decompress each candidate stream and check it before accepting the tier",
		func(p *fallback) *bool { return &p.verify }),
	core.Field(keyFallbackVerifyAbs, "max pointwise error the verification gate tolerates (0 = shape check only)", core.AtLeast(0),
		func(p *fallback) *float64 { return &p.verifyAbs }),
	core.Report(keyFallbackLastTier, "tier that served the most recent call",
		func(p *fallback) string { return p.lastTier }),
)

func (p *fallback) Opts() core.Opts { return fallbackSchema.For(p) }

func (p *fallback) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
	cfg.SetValue("fallback:known", core.SupportedCompressors())
	return cfg
}

func (p *fallback) CompressImpl(in, out *core.Data) error {
	if len(p.tiers) == 0 {
		return fmt.Errorf("%w: %s", core.ErrMissingOption, keyFallbackCompressors)
	}
	var tierErrs []error
	for i := range p.tiers {
		result := core.NewEmpty(core.DTypeByte, 0)
		comp, err := guarded(p.deadline, &p.tiers[i], (*core.Compressor).Compress, in, result)
		if err == nil && p.verify {
			if err = p.verifyRoundTrip(&p.tiers[i], in, result); err != nil {
				trace.CounterAdd(trace.CtrFallbackVerifyFailed, 1)
			}
		}
		if err != nil {
			tierErrs = append(tierErrs, fmt.Errorf("tier %s: %w", p.tiers[i].Name, err))
			continue
		}
		prefix := comp.Prefix()
		p.lastTier = prefix
		trace.CounterAdd(trace.FallbackTierKey(prefix), 1)
		if i > 0 {
			trace.CounterAdd(trace.CtrFallbackEngaged, 1)
		}
		return WriteFrame(out, prefix, in, result)
	}
	trace.CounterAdd(trace.CtrFallbackExhausted, 1)
	return fmt.Errorf("fallback: all %d tiers failed: %w", len(p.tiers), errors.Join(tierErrs...))
}

// verifyRoundTrip is the optional error-bound gate: the candidate stream is
// decompressed (under the same guarded execution) and compared against the
// input. With fallback:verify_abs > 0 the max pointwise absolute error must
// stay within the bound; with no bound the decompression merely has to
// succeed with the right shape. A tier that cannot honor the bound on this
// input degrades to the next tier instead of silently shipping bad data.
func (p *fallback) verifyRoundTrip(tier *childComp, in, stream *core.Data) error {
	dec := core.NewEmpty(in.DType(), in.Dims()...)
	if _, err := guarded(p.deadline, tier, (*core.Compressor).Decompress, core.NewBytes(stream.Bytes()), dec); err != nil {
		return fmt.Errorf("round-trip verification: %w", err)
	}
	if dec.Len() != in.Len() {
		return fmt.Errorf("round-trip verification: %w: %d elements became %d",
			core.ErrInvalidDims, in.Len(), dec.Len())
	}
	if p.verifyAbs > 0 && in.DType().Numeric() {
		if maxErr := maxAbsError(in, dec); maxErr > p.verifyAbs {
			return fmt.Errorf("round-trip verification: max abs error %g exceeds bound %g",
				maxErr, p.verifyAbs)
		}
	}
	return nil
}

// maxAbsError computes the max pointwise |a-b|; non-finite pairs count as 0
// when both sides agree and +Inf when they diverge.
func maxAbsError(a, b *core.Data) float64 {
	av, bv := a.AsFloat64s(), b.AsFloat64s()
	if len(av) != len(bv) {
		return math.Inf(1)
	}
	maxErr := 0.0
	for i := range av {
		x, y := av[i], bv[i]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				return math.Inf(1)
			}
			continue
		}
		if d := math.Abs(x - y); d > maxErr {
			maxErr = d
		}
	}
	return maxErr
}

func (p *fallback) DecompressImpl(in, out *core.Data) error {
	if len(p.tiers) == 0 {
		return fmt.Errorf("%w: %s", core.ErrMissingOption, keyFallbackCompressors)
	}
	b := in.Bytes()
	if IsFramed(b) {
		comp, err := p.tiers.Route(b, out, p.deadline)
		if err == nil {
			p.lastTier = comp.Prefix()
		}
		return err
	}
	// Unframed stream, written by something other than fallback: the
	// producing tier is unrecorded, so probe the chain in preference order.
	var tierErrs []error
	for i := range p.tiers {
		tmp := core.NewEmpty(out.DType(), out.Dims()...)
		comp, err := guarded(p.deadline, &p.tiers[i], (*core.Compressor).Decompress, core.NewBytes(b), tmp)
		if err == nil {
			p.lastTier = comp.Prefix()
			out.Become(tmp)
			return nil
		}
		tierErrs = append(tierErrs, fmt.Errorf("tier %s: %w", p.tiers[i].Name, err))
	}
	trace.CounterAdd(trace.CtrFallbackExhausted, 1)
	return fmt.Errorf("fallback: no tier decompressed the stream: %w", errors.Join(tierErrs...))
}

func (p *fallback) Clone() core.CompressorPlugin {
	clone := *p
	clone.tiers = p.tiers.Clone()
	return &clone
}
