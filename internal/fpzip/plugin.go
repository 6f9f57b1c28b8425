package fpzip

import "pressio/internal/core"

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

func (p *plugin) Prefix() string { return "fpzip" }

var schema = core.NewSchema(
	core.Field(keyPrec, "bits of precision to keep (0 = lossless)", core.Closed(0, 64),
		func(p *plugin) *uint64 { return &p.prec }),
)

func (p *plugin) Opts() core.Opts { return schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	cfg.SetValue("fpzip:float_only", int32(1))
	return cfg
}

// CompressImpl mirrors the real fpzip: floating point only.
func (p *plugin) CompressImpl(in, out *core.Data) error {
	prm := Params{Precision: uint(p.prec)}
	return core.CompressFloat(in, out,
		func(v []float32, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) },
		func(v []float64, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) })
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	h, _, err := ParseHeader(in.Bytes())
	if err != nil {
		return err
	}
	return core.DecompressFloat(h.DType, in.Bytes(), out, DecompressSlice[float32], DecompressSlice[float64])
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
