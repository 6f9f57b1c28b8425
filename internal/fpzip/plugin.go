package fpzip

import (
	"fmt"

	"pressio/internal/core"
)

// Option keys the fpzip plugin owns.
const (
	keyPrec = "fpzip:prec"
)

// plugin adapts fpzip to the framework. fpzip has no absolute error bound
// mode; its single knob is keyPrec (0 = lossless), so it demonstrates
// a plugin whose options do not include the generic pressio:abs — clients
// discover that through introspection instead of crashing at runtime.
type plugin struct {
	prec uint64
}

func init() {
	core.RegisterCompressor("fpzip", func() core.CompressorPlugin { return &plugin{} })
}

func (p *plugin) Prefix() string  { return "fpzip" }
func (p *plugin) Version() string { return Version }

var schema = core.NewSchema(
	core.Field(keyPrec, "bits of precision to keep (0 = lossless)", core.Closed(0, 64),
		func(p *plugin) *uint64 { return &p.prec }),
)

func (p *plugin) Options() *core.Options             { return schema.Options(p) }
func (p *plugin) SetOptions(o *core.Options) error   { return schema.Set(p, o) }
func (p *plugin) CheckOptions(o *core.Options) error { return schema.Check(p, o) }
func (p *plugin) Schema() []core.OptionSpec          { return schema.Specs() }

func (p *plugin) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	cfg.SetValue("fpzip:float_only", int32(1))
	return cfg
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	var stream []byte
	var err error
	switch in.DType() {
	case core.DTypeFloat32:
		stream, err = CompressSlice(in.Float32s(), in.Dims(), Params{Precision: uint(p.prec)})
	case core.DTypeFloat64:
		stream, err = CompressSlice(in.Float64s(), in.Dims(), Params{Precision: uint(p.prec)})
	default:
		// Mirrors the real fpzip: floating point only.
		return fmt.Errorf("%w: fpzip accepts only floating point data, got %s",
			core.ErrInvalidDType, in.DType())
	}
	if err != nil {
		return err
	}
	out.Become(core.NewBytes(stream))
	return nil
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	h, _, err := ParseHeader(in.Bytes())
	if err != nil {
		return err
	}
	switch h.DType {
	case core.DTypeFloat32:
		vals, dims, err := DecompressSlice[float32](in.Bytes())
		if err != nil {
			return err
		}
		out.Become(core.FromFloat32s(vals, dims...))
	case core.DTypeFloat64:
		vals, dims, err := DecompressSlice[float64](in.Bytes())
		if err != nil {
			return err
		}
		out.Become(core.FromFloat64s(vals, dims...))
	default:
		return ErrCorrupt
	}
	return nil
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
