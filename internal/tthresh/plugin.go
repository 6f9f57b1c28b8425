package tthresh

import (
	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Option keys the tthresh plugin owns.
const (
	keyEps = "tthresh:eps"
)

// plugin adapts tthresh to the framework. tthresh targets a relative
// Frobenius-norm error (keyEps) rather than a pointwise bound —
// another example of bound-semantics diversity the uniform interface must
// surface through introspection rather than pretend away.
type plugin struct {
	eps   float64
	level int32
}

func init() {
	core.RegisterCompressor("tthresh", func() core.CompressorPlugin {
		return &plugin{eps: 1e-3}
	})
}

func (p *plugin) Prefix() string { return "tthresh" }

var schema = core.NewSchema(
	core.Field(keyEps, "target relative Frobenius-norm error", core.Open(0, 1),
		func(p *plugin) *float64 { return &p.eps }),
	core.Field(core.KeyLossless, "effort level of the DEFLATE back end", lossless.LevelBounds,
		func(p *plugin) *int32 { return &p.level }),
)

func (p *plugin) Opts() core.Opts { return schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "experimental", Version, false)
	cfg.SetValue("tthresh:error_norm", "frobenius_relative")
	return cfg
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	prm := Params{Eps: p.eps, LosslessLevel: int(p.level)}
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
