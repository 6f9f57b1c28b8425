package metrics

import (
	"errors"

	"pressio/internal/core"
)

// Option keys the mask metric owns.
const (
	keyMaskMetric = "mask:metric"
	keyMaskMask   = "mask:mask"
)

func init() {
	core.RegisterMetric("mask", func() core.Metric { return newMasked() })
	core.RegisterMetric("critical_points", func() core.Metric { return &criticalPoints{} })
}

// masked wraps another metric, removing masked points from both the
// original and decompressed data before delegating — the paper's "masked"
// metrics module (e.g. exclude fill values or a detector's dead pixels
// from error statistics). Options: keyMaskMetric names the wrapped metric,
// keyMaskMask is a uint8 Data where nonzero marks points to EXCLUDE.
type masked struct {
	child core.Child[core.Metric]
	mask  []uint8
	input *core.Data
}

func newMasked() *masked {
	return &masked{child: core.Child[core.Metric]{Name: "error_stat"}}
}

func (m *masked) Prefix() string { return "mask" }

var maskedSchema = core.NewSchema(
	core.ChildRow(keyMaskMetric, "name of the metric that sees only the unmasked points; it receives every option set here",
		func(m *masked) *core.Child[core.Metric] { return &m.child }),
	func() core.Row[masked] {
		r := core.Opt(keyMaskMask, "uint8 buffer, one entry per element; non-zero excludes the element", core.Bounds{},
			func(m *masked) (*core.Data, bool) { return nil, false },
			func(m *masked, d *core.Data) { m.mask = append([]uint8(nil), d.Bytes()...) })
		r.Check = func(o core.Option) error {
			if d, _ := o.Value().(*core.Data); d == nil || (d.DType() != core.DTypeUint8 && d.DType() != core.DTypeByte) {
				return errors.New("must be uint8 data")
			}
			return nil
		}
		return r
	}(),
)

func (m *masked) Options() *core.Options             { return maskedSchema.Options(m) }
func (m *masked) SetOptions(o *core.Options) error   { return maskedSchema.Set(m, o) }
func (m *masked) CheckOptions(o *core.Options) error { return maskedSchema.Check(m, o) }
func (m *masked) Schema() []core.OptionSpec          { return maskedSchema.Specs() }

// ensureChild returns the wrapped metric, or nil when it cannot be built.
func (m *masked) ensureChild() core.Metric {
	child, err := m.child.Get()
	if err != nil {
		return nil
	}
	return child
}

// filter removes masked elements, returning a fresh 1-D float64 Data.
func (m *masked) filter(d *core.Data) *core.Data {
	if len(m.mask) == 0 || d == nil || !d.HasData() || !d.DType().Numeric() {
		return d
	}
	vals := d.AsFloat64s()
	if len(vals) != len(m.mask) {
		return d
	}
	kept := make([]float64, 0, len(vals))
	for i, v := range vals {
		if m.mask[i] == 0 {
			kept = append(kept, v)
		}
	}
	return core.FromFloat64s(kept, uint64(len(kept)))
}

func (m *masked) BeginCompress(in *core.Data) {
	m.input = m.filter(in)
	if c := m.ensureChild(); c != nil {
		c.BeginCompress(m.input)
	}
}

func (m *masked) EndCompress(in, out *core.Data, err error) {
	if c := m.ensureChild(); c != nil {
		c.EndCompress(m.input, out, err)
	}
}

func (m *masked) BeginDecompress(in *core.Data) {
	if c := m.ensureChild(); c != nil {
		c.BeginDecompress(in)
	}
}

func (m *masked) EndDecompress(in, out *core.Data, err error) {
	if c := m.ensureChild(); c != nil {
		c.EndDecompress(in, m.filter(out), err)
	}
}

func (m *masked) Results() *core.Options {
	child, ok := m.child.Live()
	if !ok {
		return core.NewOptions()
	}
	return child.Results()
}

func (m *masked) Clone() core.Metric {
	return &masked{child: m.child.Clone(), mask: m.mask}
}

// criticalPoints is a lightweight stand-in for the paper's FTK metric
// module: it counts the strict local extrema (1-D neighbors along the
// fastest dimension) of the original and decompressed fields and reports
// how many survive compression at the same locations — a cheap proxy for
// "are the features preserved?".
type criticalPoints struct {
	core.NoOptions
	capture
	computed  bool
	origCount uint64
	decCount  uint64
	preserved uint64
}

func (m *criticalPoints) Prefix() string { return "critical_points" }

// extrema marks strict 1-D local extrema.
func extrema(vals []float64) []bool {
	out := make([]bool, len(vals))
	for i := 1; i+1 < len(vals); i++ {
		if (vals[i] > vals[i-1] && vals[i] > vals[i+1]) ||
			(vals[i] < vals[i-1] && vals[i] < vals[i+1]) {
			out[i] = true
		}
	}
	return out
}

func (m *criticalPoints) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok {
		return
	}
	eo := extrema(orig)
	ed := extrema(dec)
	m.origCount, m.decCount, m.preserved = 0, 0, 0
	for i := range eo {
		if eo[i] {
			m.origCount++
			if ed[i] {
				m.preserved++
			}
		}
		if ed[i] {
			m.decCount++
		}
	}
	m.computed = true
}

func (m *criticalPoints) Results() *core.Options {
	o := core.NewOptions()
	if !m.computed {
		return o
	}
	o.SetValue("critical_points:original", m.origCount)
	o.SetValue("critical_points:decompressed", m.decCount)
	o.SetValue("critical_points:preserved", m.preserved)
	if m.origCount > 0 {
		o.SetValue("critical_points:preserved_fraction", float64(m.preserved)/float64(m.origCount))
	}
	return o
}

func (m *criticalPoints) Clone() core.Metric { return &criticalPoints{} }
