package metrics

import (
	"math"
	"strconv"

	"pressio/internal/core"
)

// Result and option keys these metrics own.
const (
	keyPSNR           = "error_stat:psnr"
	keyAutocorrMaxLag = "autocorrelation:max_lag"
)

// errorStat computes descriptive error statistics in a single pass over the
// data: min/max/average error, MSE, RMSE, PSNR, value range, and the
// maximum value-range-relative error.
type errorStat struct {
	core.NoOptions
	capture
	computed bool
	n        uint64
	minErr   float64
	maxErr   float64
	sumErr   float64
	sumSq    float64
	maxAbs   float64
	valLo    float64
	valHi    float64
}

func (m *errorStat) Prefix() string { return "error_stat" }

func (m *errorStat) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok {
		return
	}
	m.computed = true
	m.n = uint64(len(orig))
	m.minErr, m.maxErr = math.Inf(1), math.Inf(-1)
	m.valLo, m.valHi = math.Inf(1), math.Inf(-1)
	m.sumErr, m.sumSq, m.maxAbs = 0, 0, 0
	for i := range orig {
		e := dec[i] - orig[i]
		if math.IsNaN(e) {
			continue
		}
		m.minErr = math.Min(m.minErr, e)
		m.maxErr = math.Max(m.maxErr, e)
		m.sumErr += e
		m.sumSq += e * e
		m.maxAbs = math.Max(m.maxAbs, math.Abs(e))
		m.valLo = math.Min(m.valLo, orig[i])
		m.valHi = math.Max(m.valHi, orig[i])
	}
}

func (m *errorStat) Results() *core.Options {
	o := core.NewOptions()
	if !m.computed || m.n == 0 {
		return o
	}
	mse := m.sumSq / float64(m.n)
	o.SetValue("error_stat:n", m.n)
	o.SetValue("error_stat:min_error", m.minErr)
	o.SetValue("error_stat:max_error", m.maxErr)
	o.SetValue("error_stat:average_error", m.sumErr/float64(m.n))
	o.SetValue("error_stat:max_abs_error", m.maxAbs)
	o.SetValue("error_stat:mse", mse)
	o.SetValue("error_stat:rmse", math.Sqrt(mse))
	o.SetValue("error_stat:value_range", m.valHi-m.valLo)
	o.SetValue("error_stat:value_min", m.valLo)
	o.SetValue("error_stat:value_max", m.valHi)
	if rng := m.valHi - m.valLo; rng > 0 {
		o.SetValue("error_stat:max_rel_error", m.maxAbs/rng)
		if mse > 0 {
			o.SetValue(keyPSNR, 20*math.Log10(rng)-10*math.Log10(mse))
		} else {
			o.SetValue(keyPSNR, math.Inf(1))
		}
	}
	return o
}

func (m *errorStat) Clone() core.Metric { return &errorStat{} }

// pearson computes Pearson's correlation coefficient between the original
// and decompressed values.
type pearson struct {
	core.NoOptions
	capture
	computed bool
	r        float64
}

func (m *pearson) Prefix() string { return "pearson" }

func (m *pearson) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 {
		return
	}
	m.r = correlation(orig, dec)
	m.computed = true
}

// correlation computes Pearson's r in one pass.
func correlation(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab - sa*sb/n
	va := saa - sa*sa/n
	vb := sbb - sb*sb/n
	if va <= 0 || vb <= 0 {
		if va == 0 && vb == 0 {
			return 1 // both constant: identical up to shift
		}
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func (m *pearson) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("pearson:r", m.r)
		o.SetValue("pearson:r2", m.r*m.r)
	}
	return o
}

func (m *pearson) Clone() core.Metric { return &pearson{} }

// autocorr computes the autocorrelation of the pointwise errors at one or
// more lags; compression artifacts often show up as correlated errors.
type autocorr struct {
	capture
	lags     []uint64
	computed bool
	results  map[uint64]float64
}

func newAutocorr() *autocorr {
	return &autocorr{lags: []uint64{1}, results: map[uint64]float64{}}
}

func (m *autocorr) Prefix() string { return "autocorrelation" }

var autocorrSchema = core.NewSchema(
	core.Opt(keyAutocorrMaxLag, "report the error autocorrelation at lags 1..max_lag", core.Closed(1, 1<<20-1),
		func(m *autocorr) (uint64, bool) { return uint64(len(m.lags)), true },
		func(m *autocorr, v uint64) {
			m.lags = make([]uint64, v)
			for i := range m.lags {
				m.lags[i] = uint64(i) + 1
			}
		}),
)

func (m *autocorr) Options() *core.Options             { return autocorrSchema.Options(m) }
func (m *autocorr) SetOptions(o *core.Options) error   { return autocorrSchema.Set(m, o) }
func (m *autocorr) CheckOptions(o *core.Options) error { return autocorrSchema.Check(m, o) }
func (m *autocorr) Schema() []core.OptionSpec          { return autocorrSchema.Specs() }

func (m *autocorr) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok {
		return
	}
	errs := make([]float64, len(orig))
	for i := range orig {
		errs[i] = dec[i] - orig[i]
	}
	m.results = map[uint64]float64{}
	for _, lag := range m.lags {
		if lag >= uint64(len(errs)) {
			continue
		}
		m.results[lag] = correlation(errs[:len(errs)-int(lag)], errs[lag:])
	}
	m.computed = true
}

func (m *autocorr) Results() *core.Options {
	o := core.NewOptions()
	if !m.computed {
		return o
	}
	for lag, r := range m.results {
		o.SetValue(formatLagKey(lag), r)
	}
	return o
}

func formatLagKey(lag uint64) string {
	return "autocorrelation:lag_" + strconv.FormatUint(lag, 10)
}

func (m *autocorr) Clone() core.Metric {
	c := newAutocorr()
	c.lags = append([]uint64(nil), m.lags...)
	return c
}
