package mgard

import (
	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Option keys the mgard plugin owns.
const (
	keyTolerance = "mgard:tolerance"
)

// plugin adapts the multilevel compressor to the framework.
type plugin struct {
	bound core.BoundConfig
	level int32
}

func init() {
	core.RegisterCompressor("mgard", func() core.CompressorPlugin {
		return &plugin{bound: core.BoundConfig{Mode: core.BoundAbs, Bound: 1e-3}}
	})
}

func (p *plugin) Prefix() string  { return "mgard" }
func (p *plugin) Version() string { return Version }

var schema = core.NewSchema(append(
	core.BoundRows("mgard", func(p *plugin) *core.BoundConfig { return &p.bound }),
	core.Opt(keyTolerance, "the bound under its MGARD name; setting it selects the absolute mode", core.Above(0),
		func(p *plugin) (float64, bool) { return p.bound.Bound, true },
		func(p *plugin, v float64) { p.bound = core.BoundConfig{Mode: core.BoundAbs, Bound: v} }),
	core.Field(core.KeyLossless, "effort level of the DEFLATE back end", lossless.LevelBounds,
		func(p *plugin) *int32 { return &p.level }),
)...)

func (p *plugin) Options() *core.Options             { return schema.Options(p) }
func (p *plugin) SetOptions(o *core.Options) error   { return schema.Set(p, o) }
func (p *plugin) CheckOptions(o *core.Options) error { return schema.Check(p, o) }
func (p *plugin) Schema() []core.OptionSpec          { return schema.Specs() }

func (p *plugin) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	cfg.SetValue("mgard:min_points_per_dim", uint64(3))
	return cfg
}

func (p *plugin) params() Params {
	return Params{Mode: p.bound.Mode, Bound: p.bound.Bound, LosslessLevel: int(p.level)}
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	prm := p.params()
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
