package meta

import (
	"fmt"
	"math/rand"

	"pressio/internal/core"
)

// Option keys the injector and switch meta-compressors own.
const (
	keyFaultFaults       = "fault_injector:faults"
	keyFaultSeed         = "fault_injector:seed"
	keyNoiseDistribution = "noise_injector:distribution"
	keyNoiseScale        = "noise_injector:scale"
	keyNoiseSeed         = "noise_injector:seed"
	keySwitchActive      = "switch:active"
)

func init() {
	core.RegisterCompressor("fault_injector", func() core.CompressorPlugin {
		return &faultInjector{child: child{Name: "sz_threadsafe"}, nFaults: 1}
	})
	core.RegisterCompressor("noise_injector", func() core.CompressorPlugin {
		return &noiseInjector{child: child{Name: "sz_threadsafe"}, dist: "gaussian", scale: 1e-3}
	})
	core.RegisterCompressor("switch", func() core.CompressorPlugin {
		return &switchMeta{child: child{Name: "sz_threadsafe"}}
	})
}

// faultInjector compresses with its child and then flips bits in the
// compressed stream — the building block of fuzz-style resilience testing
// of decompressors (the paper's Fault Injector).
type faultInjector struct {
	child   child
	nFaults uint64
	seed    int64
}

func (p *faultInjector) Prefix() string  { return "fault_injector" }
func (p *faultInjector) Version() string { return Version }

var faultInjectorSchema = core.NewSchema(
	core.Field(keyFaultFaults, "bits to flip in each compressed stream", core.Bounds{},
		func(p *faultInjector) *uint64 { return &p.nFaults }),
	core.Field(keyFaultSeed, "seed of the bit-position PRNG", core.Bounds{},
		func(p *faultInjector) *int64 { return &p.seed }),
	childRow("fault_injector", func(p *faultInjector) *child { return &p.child }),
)

func (p *faultInjector) Options() *core.Options             { return faultInjectorSchema.Options(p) }
func (p *faultInjector) SetOptions(o *core.Options) error   { return faultInjectorSchema.Set(p, o) }
func (p *faultInjector) CheckOptions(o *core.Options) error { return faultInjectorSchema.Check(p, o) }
func (p *faultInjector) Schema() []core.OptionSpec          { return faultInjectorSchema.Specs() }

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
	buf := append([]byte(nil), inner.Bytes()...)
	rng := rand.New(rand.NewSource(p.seed))
	for i := uint64(0); i < p.nFaults && len(buf) > 0; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *faultInjector) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

func (p *faultInjector) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// noiseInjector adds random noise to each input element before handing the
// data to the child compressor — the Random Error Injector, used to study
// how compressors respond to measurement noise.
type noiseInjector struct {
	child child
	dist  string // "gaussian" or "uniform"
	scale float64
	seed  int64
}

func (p *noiseInjector) Prefix() string  { return "noise_injector" }
func (p *noiseInjector) Version() string { return Version }

var noiseInjectorSchema = core.NewSchema(
	core.Field(keyNoiseDistribution, "noise distribution", core.OneOf("gaussian", "uniform"),
		func(p *noiseInjector) *string { return &p.dist }),
	core.Field(keyNoiseScale, "standard deviation (gaussian) or half-width (uniform) of the noise", core.AtLeast(0),
		func(p *noiseInjector) *float64 { return &p.scale }),
	core.Field(keyNoiseSeed, "seed of the noise PRNG", core.Bounds{},
		func(p *noiseInjector) *int64 { return &p.seed }),
	childRow("noise_injector", func(p *noiseInjector) *child { return &p.child }),
)

func (p *noiseInjector) Options() *core.Options             { return noiseInjectorSchema.Options(p) }
func (p *noiseInjector) SetOptions(o *core.Options) error   { return noiseInjectorSchema.Set(p, o) }
func (p *noiseInjector) CheckOptions(o *core.Options) error { return noiseInjectorSchema.Check(p, o) }
func (p *noiseInjector) Schema() []core.OptionSpec          { return noiseInjectorSchema.Specs() }

func (p *noiseInjector) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *noiseInjector) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	work := in.Clone()
	rng := rand.New(rand.NewSource(p.seed))
	noise := func() float64 {
		if p.dist == "uniform" {
			return (rng.Float64()*2 - 1) * p.scale
		}
		return rng.NormFloat64() * p.scale
	}
	switch in.DType() {
	case core.DTypeFloat32:
		v := work.Float32s()
		for i := range v {
			v[i] += float32(noise())
		}
	case core.DTypeFloat64:
		v := work.Float64s()
		for i := range v {
			v[i] += noise()
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

func (p *noiseInjector) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

func (p *noiseInjector) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// switchMeta dispatches to the compressor named by keySwitchActive, which is
// how optimizers search across compressor *types* with a single
// configuration knob. Every option ever set is replayed into whichever
// compressor becomes active.
type switchMeta struct {
	child child
}

func (p *switchMeta) Prefix() string  { return "switch" }
func (p *switchMeta) Version() string { return Version }

var switchSchema = core.NewSchema(
	// Eager: optimizers read the active compressor's options before first use.
	core.EagerChildRow(keySwitchActive, "name of the compressor that serves calls; it receives every option set here",
		func(p *switchMeta) *child { return &p.child }),
)

func (p *switchMeta) Options() *core.Options             { return switchSchema.Options(p) }
func (p *switchMeta) SetOptions(o *core.Options) error   { return switchSchema.Set(p, o) }
func (p *switchMeta) CheckOptions(o *core.Options) error { return switchSchema.Check(p, o) }
func (p *switchMeta) Schema() []core.OptionSpec          { return switchSchema.Specs() }

func (p *switchMeta) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
	cfg.SetValue("switch:known", core.SupportedCompressors())
	return cfg
}

func (p *switchMeta) CompressImpl(in, out *core.Data) error {
	c, err := p.child.Get()
	if err != nil {
		return err
	}
	return c.Compress(in, out)
}

func (p *switchMeta) DecompressImpl(in, out *core.Data) error {
	c, err := p.child.Get()
	if err != nil {
		return err
	}
	return c.Decompress(in, out)
}

func (p *switchMeta) Clone() core.CompressorPlugin {
	return &switchMeta{child: p.child.Clone()}
}
