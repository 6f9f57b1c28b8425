package resilience

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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
	keyFallbackFrame       = "fallback:frame"
	keyFallbackLastTier    = "fallback:last_tier"
)

func init() {
	core.RegisterCompressor("fallback", func() core.CompressorPlugin {
		return newFallback("sz_threadsafe,zfp,noop")
	})
}

func newFallback(chain string) *fallback {
	p := &fallback{frame: true}
	p.setChain(chain)
	return p
}

// fallback is the graceful-degradation meta-compressor: an ordered chain of
// tiers tried in preference order. A tier that errors, panics, exceeds the
// per-tier deadline, or fails the optional round-trip verification gate is
// skipped and the next tier serves the call. Streams are framed (see
// frame.go) with the producing tier's prefix so decompression routes back to
// the tier that actually compressed each buffer — a chain can therefore mix
// tiers freely across a batch and still decompress everything.
type fallback struct {
	tiers     []childComp
	deadline  time.Duration
	verify    bool
	verifyAbs float64
	frame     bool
	lastTier  string
}

func (p *fallback) Prefix() string  { return "fallback" }
func (p *fallback) Version() string { return Version }

func (p *fallback) chain() string {
	names := make([]string, len(p.tiers))
	for i := range p.tiers {
		names[i] = p.tiers[i].Name
	}
	return strings.Join(names, ",")
}

// setChain replaces the tiers with unbuilt ones that inherit the options
// saved so far. It builds a fresh slice: the old one may be shared with the
// plugin a staged copy was taken from.
func (p *fallback) setChain(csv string) {
	var proto childComp
	if len(p.tiers) > 0 {
		proto = p.tiers[0]
	}
	var tiers []childComp
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			tiers = append(tiers, proto.Renamed(name))
		}
	}
	p.tiers = tiers
}

// tiersRow declares the chain. Unlike a single-child wrapper it validates
// forwarded options only against tiers that are already built: a tier that
// cannot be built or configured degrades to the next one at call time, which
// is the point of the plugin.
var tiersRow = func() core.Row[fallback] {
	r := core.Opt(keyFallbackCompressors, "comma-separated tiers in preference order; each receives every option set here", core.Bounds{},
		func(p *fallback) (string, bool) { return p.chain(), true },
		func(p *fallback, csv string) {
			if csv != p.chain() {
				p.setChain(csv)
			}
		})
	r.Check = func(o core.Option) error {
		if strings.Trim(o.Value().(string), ", \t") == "" {
			return errors.New("names no tier")
		}
		return nil
	}
	r.Describe = func(p *fallback, o *core.Options) {
		for i := range p.tiers {
			p.tiers[i].Describe(o)
		}
	}
	r.Stage = func(p *fallback, o *core.Options) error {
		p.tiers = slices.Clone(p.tiers)
		for i := range p.tiers {
			if err := p.tiers[i].Stage(o); err != nil {
				return err
			}
		}
		return nil
	}
	r.Commit = func(p *fallback, o *core.Options) error {
		for i := range p.tiers {
			if err := p.tiers[i].Forward(o); err != nil {
				return err
			}
		}
		return nil
	}
	return r
}()

var fallbackSchema = core.NewSchema(
	tiersRow,
	core.Millis(keyFallbackDeadlineMS, "per-tier watchdog deadline (0 = none)", core.AtLeast(0),
		func(p *fallback) *time.Duration { return &p.deadline }),
	core.Flag(keyFallbackVerify, "decompress each candidate stream and check it before accepting the tier",
		func(p *fallback) *bool { return &p.verify }),
	core.Field(keyFallbackVerifyAbs, "max pointwise error the verification gate tolerates (0 = shape check only)", core.AtLeast(0),
		func(p *fallback) *float64 { return &p.verifyAbs }),
	core.Flag(keyFallbackFrame, "frame streams with the producing tier so decompression routes back to it",
		func(p *fallback) *bool { return &p.frame }),
	core.Report(keyFallbackLastTier, "tier that served the most recent call",
		func(p *fallback) string { return p.lastTier }),
)

func (p *fallback) Options() *core.Options             { return fallbackSchema.Options(p) }
func (p *fallback) SetOptions(o *core.Options) error   { return fallbackSchema.Set(p, o) }
func (p *fallback) CheckOptions(o *core.Options) error { return fallbackSchema.Check(p, o) }
func (p *fallback) Schema() []core.OptionSpec          { return fallbackSchema.Specs() }

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
		comp, err := p.tiers[i].Get()
		if err != nil {
			tierErrs = append(tierErrs, err)
			continue
		}
		var result *core.Data
		err = runGuarded(p.deadline, func() error {
			tmp := core.NewEmpty(core.DTypeByte, 0)
			if err := comp.Compress(in, tmp); err != nil {
				return err
			}
			result = tmp
			return nil
		})
		if err == nil && p.verify {
			if err = p.verifyRoundTrip(comp, in, result); err != nil {
				trace.CounterAdd(trace.CtrFallbackVerifyFailed, 1)
			}
		}
		if err != nil {
			if errors.Is(err, core.ErrTimeout) {
				// The timed-out call still runs detached on this instance (Go
				// cannot kill a goroutine); drop it so later calls build a
				// fresh child instead of sharing state with the zombie.
				p.tiers[i].Drop()
			}
			tierErrs = append(tierErrs, fmt.Errorf("tier %s: %w", p.tiers[i].Name, err))
			continue
		}
		prefix := comp.Prefix()
		p.lastTier = prefix
		trace.CounterAdd(trace.FallbackTierKey(prefix), 1)
		if i > 0 {
			trace.CounterAdd(trace.CtrFallbackEngaged, 1)
		}
		if p.frame {
			framed, err := EncodeFrame(prefix, in.DType(), in.Dims(), result.Bytes())
			if err != nil {
				return err
			}
			trace.CounterAdd(trace.CtrFrameWritten, 1)
			out.Become(core.NewBytes(framed))
			return nil
		}
		out.Become(result)
		return nil
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
func (p *fallback) verifyRoundTrip(comp *core.Compressor, in, stream *core.Data) error {
	dec := core.NewEmpty(in.DType(), in.Dims()...)
	err := runGuarded(p.deadline, func() error {
		return comp.Decompress(core.NewBytes(stream.Bytes()), dec)
	})
	if err != nil {
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
		f, err := DecodeFrame(b)
		if err != nil {
			trace.CounterAdd(trace.CtrFrameCorrupt, 1)
			return err
		}
		return p.decompressVia(f, out)
	}
	// Unframed stream (fallback:frame was off at compress time): the
	// producing tier is unrecorded, so probe the chain in preference order.
	var tierErrs []error
	for i := range p.tiers {
		comp, err := p.tiers[i].Get()
		if err != nil {
			tierErrs = append(tierErrs, err)
			continue
		}
		tmp := core.NewEmpty(out.DType(), out.Dims()...)
		err = runGuarded(p.deadline, func() error {
			return comp.Decompress(core.NewBytes(b), tmp)
		})
		if err == nil {
			p.lastTier = comp.Prefix()
			out.Become(tmp)
			return nil
		}
		if errors.Is(err, core.ErrTimeout) {
			p.tiers[i].Drop()
		}
		tierErrs = append(tierErrs, fmt.Errorf("tier %s: %w", p.tiers[i].Name, err))
	}
	trace.CounterAdd(trace.CtrFallbackExhausted, 1)
	return fmt.Errorf("fallback: no tier decompressed the stream: %w", errors.Join(tierErrs...))
}

// decompressVia routes a framed stream back to the tier that produced it.
func (p *fallback) decompressVia(f Frame, out *core.Data) error {
	var getErrs []error
	for i := range p.tiers {
		comp, err := p.tiers[i].Get()
		if err != nil {
			if p.tiers[i].Name == f.Prefix {
				// The frame names this tier; a failure to build it is a
				// configuration problem, not stream corruption.
				getErrs = append(getErrs, fmt.Errorf("tier %s: %w", p.tiers[i].Name, err))
			}
			continue
		}
		if comp.Prefix() != f.Prefix && p.tiers[i].Name != f.Prefix {
			continue
		}
		hintDT, hintDims := out.DType(), out.Dims()
		if hintDT == core.DTypeUnset || len(hintDims) == 0 {
			hintDT, hintDims = f.DType, f.Dims
		}
		// Decompress into a fresh buffer, not the caller's out: a timed-out
		// call keeps running detached and must not share a target with
		// whatever the caller does next.
		target := core.NewEmpty(hintDT, hintDims...)
		err = runGuarded(p.deadline, func() error {
			return comp.Decompress(core.NewBytes(f.Payload), target)
		})
		if err != nil {
			if errors.Is(err, core.ErrTimeout) {
				p.tiers[i].Drop()
			}
			return err
		}
		p.lastTier = comp.Prefix()
		out.Become(target)
		return nil
	}
	if len(getErrs) > 0 {
		return fmt.Errorf("fallback: tier for frame producer %q failed to instantiate: %w",
			f.Prefix, errors.Join(getErrs...))
	}
	return fmt.Errorf("resilience: %w: frame produced by %q which is not in the chain %q",
		core.ErrCorrupt, f.Prefix, p.chain())
}

func (p *fallback) Clone() core.CompressorPlugin {
	clone := *p
	clone.tiers = make([]childComp, len(p.tiers))
	for i := range p.tiers {
		clone.tiers[i] = p.tiers[i].Clone()
	}
	return &clone
}
