package faultinject

import (
	"bytes"
	"fmt"

	"pressio/internal/core"
)

// Option keys the stream and input injectors own.
const (
	keyFaultFaults       = "fault_injector:faults"
	keyFaultSeed         = "fault_injector:seed"
	keyNoiseDistribution = "noise_injector:distribution"
	keyNoiseScale        = "noise_injector:scale"
	keyNoiseSeed         = "noise_injector:seed"
)

func init() {
	core.RegisterCompressor("fault_injector", func() core.CompressorPlugin {
		return &faultInjector{wrapped: wrapped{child{Name: "sz_threadsafe"}}, nFaults: 1}
	})
	core.RegisterCompressor("noise_injector", func() core.CompressorPlugin {
		return &noiseInjector{wrapped: wrapped{child{Name: "sz_threadsafe"}}, dist: "gaussian", scale: 1e-3}
	})
}

// child is the wrapped compressor of an injector.
type child = core.Child[*core.Compressor]

// childRow declares "<prefix>:compressor" for an injector.
func childRow[T any](prefix string, field func(*T) *child) core.Row[T] {
	return core.ChildRow(prefix+":compressor", "name of the wrapped compressor; it receives every option set here", field)
}

// wrapped is an injector's child. Injectors perturb what goes into a
// compression or comes out of it, and decompress through the child as is.
type wrapped struct{ child child }

func (w *wrapped) DecompressImpl(in, out *core.Data) error {
	comp, err := w.child.Get()
	if err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

// faultInjector compresses with its child and then flips bits in the
// compressed stream — the building block of fuzz-style resilience testing
// of decompressors (the paper's Fault Injector). Every call replays the
// schedule of its seed, so one configuration always flips the same bits.
type faultInjector struct {
	wrapped
	nFaults uint64
	seed    int64
}

func (p *faultInjector) Prefix() string { return "fault_injector" }

var faultInjectorSchema = core.NewSchema(
	core.Field(keyFaultFaults, "bits to flip in each compressed stream", core.Bounds{},
		func(p *faultInjector) *uint64 { return &p.nFaults }),
	core.Field(keyFaultSeed, "seed of the bit-position PRNG", core.Bounds{},
		func(p *faultInjector) *int64 { return &p.seed }),
	childRow("fault_injector", func(p *faultInjector) *child { return &p.child }),
)

func (p *faultInjector) Opts() core.Opts { return faultInjectorSchema.For(p) }

func (p *faultInjector) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *faultInjector) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	inner, err := core.Compress(comp, in)
	if err != nil {
		return err
	}
	buf := bytes.Clone(inner.Bytes())
	d := newDice(p.seed)
	for i := uint64(0); i < p.nFaults && len(buf) > 0; i++ {
		d.flip(buf)
	}
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *faultInjector) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// noiseInjector adds random noise to each input element before handing the
// data to the child compressor — the Random Error Injector, used to study
// how compressors respond to measurement noise. Like faultInjector, every
// call replays its seed's schedule.
type noiseInjector struct {
	wrapped
	dist  string // "gaussian" or "uniform"
	scale float64
	seed  int64
}

func (p *noiseInjector) Prefix() string { return "noise_injector" }

var noiseInjectorSchema = core.NewSchema(
	core.Field(keyNoiseDistribution, "noise distribution", core.OneOf("gaussian", "uniform"),
		func(p *noiseInjector) *string { return &p.dist }),
	core.Field(keyNoiseScale, "standard deviation (gaussian) or half-width (uniform) of the noise", core.AtLeast(0),
		func(p *noiseInjector) *float64 { return &p.scale }),
	core.Field(keyNoiseSeed, "seed of the noise PRNG", core.Bounds{},
		func(p *noiseInjector) *int64 { return &p.seed }),
	childRow("noise_injector", func(p *noiseInjector) *child { return &p.child }),
)

func (p *noiseInjector) Opts() core.Opts { return noiseInjectorSchema.For(p) }

func (p *noiseInjector) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *noiseInjector) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	work := in.Clone()
	d, gaussian := newDice(p.seed), p.dist == "gaussian"
	switch in.DType() {
	case core.DTypeFloat32:
		v := work.Float32s()
		for i := range v {
			v[i] += float32(d.noise(gaussian, p.scale))
		}
	case core.DTypeFloat64:
		v := work.Float64s()
		for i := range v {
			v[i] += d.noise(gaussian, p.scale)
		}
	default:
		return fmt.Errorf("%w: noise_injector needs floating point data", core.ErrInvalidDType)
	}
	inner, err := core.Compress(comp, work)
	if err != nil {
		return err
	}
	out.Become(inner)
	return nil
}

func (p *noiseInjector) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
