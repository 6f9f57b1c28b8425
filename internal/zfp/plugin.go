package zfp

import "pressio/internal/core"

// plugin adapts the codec to the framework. The generic error-bound options
// map onto fixed-accuracy mode: "pressio:abs" sets the tolerance directly
// and "pressio:rel" resolves against the input's value range at compress
// time, the translation work native clients would otherwise hand-roll.
type plugin struct {
	mode      Mode
	rate      float64
	precision uint64
	tolerance float64
	relBound  float64 // when > 0, resolve tolerance from the value range
}

// Option keys the zfp plugin owns, declared once so spellings cannot drift.
const (
	keyMode      = "zfp:mode"
	keyRate      = "zfp:rate"
	keyPrecision = "zfp:precision"
	keyAccuracy  = "zfp:accuracy"
)

func init() {
	core.RegisterCompressor("zfp", func() core.CompressorPlugin {
		return &plugin{mode: ModeFixedAccuracy, tolerance: 1e-3, rate: 16, precision: 32}
	})
}

func (p *plugin) Prefix() string { return "zfp" }

// schema is the zfp option table. Rows apply in order: a mode parameter
// selects its own mode, an explicit zfp:mode overrides that, and the generic
// bounds, last, always mean fixed accuracy.
var schema = core.NewSchema(
	core.Field(keyRate, "bits per value; selects fixed-rate mode", core.LeftOpen(0, 128),
		func(p *plugin) *float64 { return &p.rate }).
		OnSet(func(p *plugin) { p.mode = ModeFixedRate }),
	core.Field(keyPrecision, "bit planes kept per block; selects fixed-precision mode", core.Closed(1, 64),
		func(p *plugin) *uint64 { return &p.precision }).
		OnSet(func(p *plugin) { p.mode = ModeFixedPrecision }),
	core.Field(keyAccuracy, "absolute error tolerance; selects fixed-accuracy mode", core.Above(0),
		func(p *plugin) *float64 { return &p.tolerance }).
		OnSet(func(p *plugin) { p.mode, p.relBound = ModeFixedAccuracy, 0 }),
	core.Parsed(keyMode, "compression mode: accuracy (abs), rate or precision", ParseMode,
		func(p *plugin) *Mode { return &p.mode }),
	core.Opt(core.KeyAbs, "pointwise absolute error bound (the fixed-accuracy tolerance)", core.Above(0),
		func(p *plugin) (float64, bool) { return p.tolerance, p.mode == ModeFixedAccuracy && p.relBound <= 0 },
		func(p *plugin, v float64) { p.mode, p.tolerance, p.relBound = ModeFixedAccuracy, v, 0 }),
	core.Opt(core.KeyRel, "tolerance as a fraction of the input's value range, resolved per compress", core.Above(0),
		func(p *plugin) (float64, bool) { return p.relBound, p.mode == ModeFixedAccuracy && p.relBound > 0 },
		func(p *plugin, v float64) { p.mode, p.relBound = ModeFixedAccuracy, v }),
)

func (p *plugin) Opts() core.Opts { return schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	cfg.SetValue("zfp:modes", []string{"accuracy", "rate", "precision"})
	return cfg
}

// params resolves the plugin state into codec Params for the given input
// (needed to resolve value-range-relative bounds).
func (p *plugin) params(in *core.Data) Params {
	prm := Params{Mode: p.mode, Rate: p.rate, Precision: uint(p.precision), Tolerance: p.tolerance}
	if p.mode == ModeFixedAccuracy && p.relBound > 0 && in != nil {
		lo, hi := core.ValueRange(in)
		prm.Tolerance = p.relBound * (hi - lo)
		if prm.Tolerance <= 0 {
			prm.Tolerance = 1e-38
		}
	}
	return prm
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	prm := p.params(in)
	return core.CompressFloat(in, out,
		func(v []float32, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) },
		func(v []float64, dims []uint64) ([]byte, error) { return CompressSlice(v, dims, prm) })
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	h, _, _, err := ParseHeader(in.Bytes())
	if err != nil {
		return err
	}
	return core.DecompressFloat(h.DType, in.Bytes(), out, DecompressSlice[float32], DecompressSlice[float64])
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
