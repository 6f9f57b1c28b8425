// Package opt implements the configuration optimizer (the paper's
// LibPressio-Opt / FRaZ lineage) as the "opt" meta-compressor. It races a
// chain of candidate compressors; given a target — a compression ratio or a
// PSNR floor — it searches each candidate's error bound for it, and it emits
// the stream of the candidate with the highest ratio. It drives candidates
// only through the generic interface and reads their ratio and quality from
// the size and error_stat metrics, so it works over any registered plugin,
// and every client that names a compressor can name opt.
package opt

import (
	"errors"
	"fmt"
	"math"

	"pressio/internal/core"
	"pressio/internal/resilience"

	_ "pressio/internal/metrics" // opt reads the size and error_stat metrics
)

// Option keys the opt meta-compressor owns.
const (
	keyCompressors = "opt:compressors"
	keyTargetRatio = "opt:target_ratio"
	keyTargetPSNR  = "opt:target_psnr"
	keyTolerance   = "opt:tolerance"
	keyBound       = "opt:bound"
	keyEvaluations = "opt:evaluations"
	keyChosen      = "opt:chosen"
)

// The search brackets pressio:abs between these fractions of the input's
// value range and bisects the bracket, in log space, at most maxIters times.
const (
	minBound = 1e-9
	maxBound = 0.5
	maxIters = 32
)

// Version is the opt plugin version.
const Version = "1.0.0"

// ErrNoSolution reports that no candidate met the target.
var ErrNoSolution = errors.New("opt: no configuration meets the target")

func init() {
	core.RegisterCompressor("opt", func() core.CompressorPlugin {
		return &plugin{candidates: resilience.Chain{{Name: "sz_threadsafe"}}, tolerance: 0.1}
	})
}

// plugin is the opt meta-compressor. Compression frames the winning stream
// with its producer, so decompression routes back to that candidate.
type plugin struct {
	candidates  resilience.Chain
	targetRatio float64
	targetPSNR  float64
	tolerance   float64

	// What the last compression chose, reported read-only.
	bound       float64
	evaluations uint64
	chosen      string
}

func (p *plugin) Prefix() string { return "opt" }

var schema = core.NewSchema(
	resilience.ChainRow(keyCompressors, "comma-separated candidate compressors; each receives every option set here",
		func(p *plugin) *resilience.Chain { return &p.candidates }),
	core.Field(keyTargetRatio, "compression ratio to reach, above 1 (0 = no target)", core.AtLeast(0),
		func(p *plugin) *float64 { return &p.targetRatio }),
	core.Field(keyTargetPSNR, "PSNR floor in dB (0 = no target)", core.AtLeast(0),
		func(p *plugin) *float64 { return &p.targetPSNR }),
	core.Field(keyTolerance, "accepted relative deviation: the ratio within ±tolerance of its target, the PSNR at most tolerance above its floor", core.Above(0),
		func(p *plugin) *float64 { return &p.tolerance }),
	core.Report(keyBound, "pressio:abs the last compression chose (0 when no target is set)",
		func(p *plugin) float64 { return p.bound }),
	core.Report(keyEvaluations, "candidate compressions the last compression spent",
		func(p *plugin) uint64 { return p.evaluations }),
	core.Report(keyChosen, "candidate whose stream the last compression emitted",
		func(p *plugin) string { return p.chosen }),
).Validate(func(p *plugin) error {
	switch {
	case p.targetRatio > 0 && p.targetPSNR > 0:
		return fmt.Errorf("%w: set %s or %s, not both", core.ErrInvalidOption, keyTargetRatio, keyTargetPSNR)
	case p.targetRatio > 0 && p.targetRatio <= 1:
		return fmt.Errorf("%w: %s: %v must exceed 1", core.ErrInvalidOption, keyTargetRatio, p.targetRatio)
	}
	return nil
})

func (p *plugin) Opts() core.Opts { return schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

// eval is one compression of the input by one candidate.
type eval struct {
	bound, ratio, psnr float64
	prefix             string
	stream             *core.Data
}

// CompressImpl tunes every candidate and emits the stream of the one with
// the highest ratio; on a tie the earlier candidate wins. A candidate that
// fails, or misses the target, drops out of the race.
func (p *plugin) CompressImpl(in, out *core.Data) error {
	p.bound, p.evaluations, p.chosen = 0, 0, ""
	var best *eval
	var errs []error
	for i := range p.candidates {
		e, err := p.tune(&p.candidates[i], in)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.candidates[i].Name, err))
		} else if best == nil || e.ratio > best.ratio {
			best = &e
		}
	}
	if best == nil {
		return fmt.Errorf("%w among %s: %w", ErrNoSolution, p.candidates, errors.Join(errs...))
	}
	p.bound, p.chosen = best.bound, best.prefix
	return resilience.WriteFrame(out, best.prefix, in, best.stream)
}

// tune evaluates one candidate on a clone, so no searched bound stays behind
// in it. With no target the candidate compresses once, at the caller's
// bound. With one, the search bisects log(pressio:abs) between the bracket's
// ends, which it evaluates first, and returns the first evaluation inside the
// target's band. A PSNR floor is also met by the largest bound evaluated
// above the band.
func (p *plugin) tune(candidate *core.Child[*core.Compressor], in *core.Data) (eval, error) {
	comp, err := candidate.Get()
	if err != nil {
		return eval{}, err
	}
	work := comp.Clone()
	m, err := core.NewMetrics("size", "error_stat")
	if err != nil {
		return eval{}, err
	}
	work.SetMetrics(m)
	if p.targetRatio == 0 && p.targetPSNR == 0 {
		return p.evaluate(work, in, 0)
	}
	lo, hi := core.ValueRange(in)
	rng := hi - lo
	if rng <= 0 {
		rng = 1
	}
	ends := [2]float64{math.Log(rng * minBound), math.Log(rng * maxBound)}
	var floor *eval
	for i := 0; i < 2+maxIters; i++ {
		x := (ends[0] + ends[1]) / 2
		if i < 2 {
			x = ends[i]
		}
		e, err := p.evaluate(work, in, math.Exp(x))
		if err != nil {
			return eval{}, err
		}
		side := p.side(e)
		switch {
		case side == 0:
			return e, nil
		case side < 0:
			ends[0] = x
			if p.targetPSNR > 0 {
				floor = &e
			}
		default:
			ends[1] = x
		}
		if (i == 0 && side > 0) || (i == 1 && side < 0) {
			break // the bracket's ends lie on one side of the target
		}
	}
	if floor != nil {
		return *floor, nil
	}
	return eval{}, fmt.Errorf("%w: no pressio:abs in [%g, %g] lands within %g of the target",
		ErrNoSolution, rng*minBound, rng*maxBound, p.tolerance)
}

// side places an evaluation against the target's band: -1 when the bound
// may grow (the ratio is short of the band, or the PSNR is above it), 0
// inside it, +1 when the bound must shrink.
func (p *plugin) side(e eval) int {
	v, lo, hi := e.ratio, p.targetRatio*(1-p.tolerance), p.targetRatio*(1+p.tolerance)
	if p.targetPSNR > 0 {
		// The PSNR falls as the bound grows; negated, it rises like the ratio.
		v, lo, hi = -e.psnr, -p.targetPSNR*(1+p.tolerance), -p.targetPSNR
	}
	switch {
	case v < lo:
		return -1
	case v > hi:
		return 1
	}
	return 0
}

// evaluate compresses in with c, at pressio:abs = bound unless bound is 0,
// decompresses the stream again, and reads what the size and error_stat
// metrics measured. A field with no value range has no PSNR, so it meets no
// floor.
func (p *plugin) evaluate(c *core.Compressor, in *core.Data, bound float64) (eval, error) {
	p.evaluations++
	if bound > 0 {
		if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, bound)); err != nil {
			return eval{}, err
		}
	}
	stream, err := core.Compress(c, in)
	if err != nil {
		return eval{}, err
	}
	if _, err := core.Decompress(c, stream, in.DType(), in.Dims()...); err != nil {
		return eval{}, err
	}
	r := c.MetricsResults()
	e := eval{bound: bound, prefix: c.Prefix(), stream: stream}
	e.ratio, _ = r.GetFloat64("size:compression_ratio") // absent only for an empty stream: ratio 0
	if e.psnr, err = r.GetFloat64("error_stat:psnr"); err != nil {
		e.psnr = math.Inf(-1)
	}
	return e, nil
}

// DecompressImpl routes the frame to the candidate that produced it.
func (p *plugin) DecompressImpl(in, out *core.Data) error {
	_, err := p.candidates.Route(in.Bytes(), out, 0)
	return err
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	clone.candidates = p.candidates.Clone()
	return &clone
}
