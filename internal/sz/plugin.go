package sz

import (
	"fmt"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// variant selects between the three plugin flavors the paper's plugin list
// includes: sz (global-config, serialized), sz_threadsafe (per-instance
// config), and sz_omp (block-parallel).
type variant int

const (
	variantGlobal variant = iota
	variantThreadsafe
	variantOMP
)

// flavor is what the three registered names differ in, shared by every
// instance of one name.
type flavor struct {
	variant variant
	name    string
	schema  *core.Schema[plugin]
}

type plugin struct {
	*flavor
	bound    core.BoundConfig
	pwRel    float64 // > 0 selects the PW_REL mode
	intvs    uint32
	level    int32
	nthreads int32
}

// newSchema declares the options of the flavor registered as name. Rows apply
// in order: the pointwise-relative bound first, so any abs/rel bound set
// alongside (or after) it supersedes it.
func newSchema(v variant, name string) *core.Schema[plugin] {
	level := func(p *plugin) *int32 { return &p.level }
	nthreads := func(p *plugin) *int32 { return &p.nthreads }
	rows := []core.Row[plugin]{
		core.Field(name+":pw_rel_err_bound", "pointwise relative error bound; selects the PW_REL mode", core.Open(0, 1),
			func(p *plugin) *float64 { return &p.pwRel }).
			UnsetWhen(func(p *plugin) bool { return p.pwRel <= 0 }),
	}
	for _, r := range core.BoundRows(name, func(p *plugin) *core.BoundConfig { return &p.bound }) {
		rows = append(rows, r.OnSet(func(p *plugin) { p.pwRel = 0 }))
	}
	rows = append(rows,
		core.Field(name+":max_quant_intervals", "quantization bins available to the Lorenzo predictor; the direct mode quantises within 2^31 bins of zero, Huffman-coding 2048 buckets of them", core.Closed(4, 1<<24),
			func(p *plugin) *uint32 { return &p.intvs }),
		core.Field(core.KeyLossless, "effort level of the DEFLATE back end (0 = 1, fastest)", lossless.LevelBounds, level),
		core.Field(name+":lossless_level", "native spelling of pressio:lossless", lossless.LevelBounds, level))
	if v == variantOMP {
		rows = append(rows,
			core.Field(core.KeyNThreads, "worker goroutines (0 = GOMAXPROCS)", core.Bounds{}, nthreads),
			core.Field(name+":nthreads", "native spelling of pressio:nthreads", core.Bounds{}, nthreads))
	}
	return core.NewSchema(rows...)
}

func newPlugin(v variant, name string) func() core.CompressorPlugin {
	f := &flavor{variant: v, name: name, schema: newSchema(v, name)}
	return func() core.CompressorPlugin {
		return &plugin{
			flavor: f,
			bound:  core.BoundConfig{Mode: core.BoundValueRangeRel, Bound: 1e-4},
			intvs:  65536,
		}
	}
}

func init() {
	core.RegisterCompressor("sz", newPlugin(variantGlobal, "sz"))
	core.RegisterCompressor("sz_threadsafe", newPlugin(variantThreadsafe, "sz_threadsafe"))
	core.RegisterCompressor("sz_omp", newPlugin(variantOMP, "sz_omp"))
}

func (p *plugin) Prefix() string { return p.name }

func (p *plugin) Opts() core.Opts { return p.schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	switch p.variant {
	case variantGlobal:
		// The classic-SZ flavor shares the process-global parameter
		// store, so instances must be serialized and are "shared".
		return core.StandardConfiguration(core.ThreadSafetySingle, "stable", Version, true)
	default:
		return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	}
}

func (p *plugin) params() Params {
	return Params{
		Mode:              p.bound.Mode,
		Bound:             p.bound.Bound,
		MaxQuantIntervals: p.intvs,
		LosslessLevel:     int(p.level),
	}
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	prm := p.params()
	switch {
	case p.pwRel > 0 && p.variant == variantOMP:
		return fmt.Errorf("%w: sz_omp does not support PW_REL", core.ErrNotImplemented)
	case p.pwRel > 0:
		return core.CompressFloat(in, out,
			func(v []float32, dims []uint64) ([]byte, error) { return CompressSlicePW(v, dims, p.pwRel, prm) },
			func(v []float64, dims []uint64) ([]byte, error) { return CompressSlicePW(v, dims, p.pwRel, prm) })
	case p.variant == variantOMP:
		return core.CompressFloat(in, out,
			func(v []float32, dims []uint64) ([]byte, error) {
				return CompressParallel(v, dims, prm, int(p.nthreads))
			},
			func(v []float64, dims []uint64) ([]byte, error) {
				return CompressParallel(v, dims, prm, int(p.nthreads))
			})
	case p.variant == variantGlobal:
		// Route through the global store exactly like the C plugin does
		// with SZ_Init / compress / SZ_Finalize. The lock makes the
		// "single" thread-safety contract concrete.
		Init(prm)
		return core.CompressFloat(in, out, CompressFloat32, CompressFloat64)
	}
	return core.CompressFloat(in, out,
		func(v []float32, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) },
		func(v []float64, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) })
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	// The stream self-describes dtype and dims; the hint only needs to be
	// compatible when set.
	stream := in.Bytes()
	switch {
	case p.variant == variantOMP:
		dtype, _, err := ParallelHeader(stream)
		if err != nil {
			return err
		}
		return core.DecompressFloat(dtype, stream, out,
			func(s []byte) ([]float32, []uint64, error) { return DecompressParallel[float32](s, int(p.nthreads)) },
			func(s []byte) ([]float64, []uint64, error) { return DecompressParallel[float64](s, int(p.nthreads)) })
	case IsPWStream(stream):
		// The inner log stream records the element type, behind exceptions
		// whose width depends on it: try float32 first.
		if core.DecompressFloat(core.DTypeFloat32, stream, out, DecompressSlicePW[float32], DecompressSlicePW[float64]) == nil {
			return nil
		}
		return core.DecompressFloat(core.DTypeFloat64, stream, out, DecompressSlicePW[float32], DecompressSlicePW[float64])
	}
	h, _, err := ParseHeader(stream)
	if err != nil {
		return err
	}
	return core.DecompressFloat(h.DType, stream, out, DecompressSlice[float32], DecompressSlice[float64])
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
