package metrics

import (
	"math"
	"sort"

	"pressio/internal/core"
)

// Option keys the distribution metrics own.
const (
	keyKLBins      = "kl_divergence:bins"
	keyDiffPDFBins = "diff_pdf:bins"
)

// ksTest computes the two-sample Kolmogorov-Smirnov statistic between the
// original and decompressed value distributions, with the asymptotic
// p-value, testing the hypothesis that compression preserved the
// distribution.
type ksTest struct {
	core.NoOptions
	capture
	computed bool
	d        float64
	p        float64
}

func (m *ksTest) Prefix() string { return "ks_test" }

func (m *ksTest) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 {
		return
	}
	m.d = ksStatistic(orig, dec)
	n := float64(len(orig))
	en := math.Sqrt(n * n / (2 * n)) // effective sample size for equal-size samples
	m.p = ksPValue((en + 0.12 + 0.11/en) * m.d)
	m.computed = true
}

// ksStatistic computes the two-sample KS statistic D.
func ksStatistic(a, b []float64) float64 {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		va, vb := as[i], bs[j]
		// Advance both sides on ties so equal samples contribute no
		// spurious CDF gap.
		if va <= vb {
			i++
		}
		if vb <= va {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// ksPValue evaluates the asymptotic Kolmogorov distribution
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	return math.Max(0, math.Min(1, p))
}

func (m *ksTest) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("ks_test:d", m.d)
		o.SetValue("ks_test:pvalue", m.p)
	}
	return o
}

func (m *ksTest) Clone() core.Metric { return &ksTest{} }

// kl computes the Kullback-Leibler divergence D(P||Q) between histograms of
// the original (P) and decompressed (Q) values over a shared binning.
type kl struct {
	capture
	bins     uint64
	computed bool
	value    float64
}

func newKL() *kl { return &kl{bins: 64} }

func (m *kl) Prefix() string { return "kl_divergence" }

var klSchema = core.NewSchema(
	core.Field(keyKLBins, "histogram bins shared by both distributions", core.Closed(2, 1<<20),
		func(m *kl) *uint64 { return &m.bins }),
)

func (m *kl) Options() *core.Options             { return klSchema.Options(m) }
func (m *kl) SetOptions(o *core.Options) error   { return klSchema.Set(m, o) }
func (m *kl) CheckOptions(o *core.Options) error { return klSchema.Check(m, o) }
func (m *kl) Schema() []core.OptionSpec          { return klSchema.Specs() }

// histogram bins values into nb equal-width bins over [lo, hi], returning
// probabilities with add-one smoothing so the divergence stays finite.
func histogram(vals []float64, lo, hi float64, nb int) []float64 {
	counts := make([]float64, nb)
	width := (hi - lo) / float64(nb)
	if width <= 0 {
		counts[0] = float64(len(vals))
	} else {
		for _, v := range vals {
			b := int((v - lo) / width)
			if b < 0 {
				b = 0
			}
			if b >= nb {
				b = nb - 1
			}
			counts[b]++
		}
	}
	total := float64(len(vals)) + float64(nb)
	probs := make([]float64, nb)
	for i, c := range counts {
		probs[i] = (c + 1) / total
	}
	return probs
}

func (m *kl) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 {
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range orig {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range dec {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	p := histogram(orig, lo, hi, int(m.bins))
	q := histogram(dec, lo, hi, int(m.bins))
	d := 0.0
	for i := range p {
		d += p[i] * math.Log(p[i]/q[i])
	}
	m.value = d
	m.computed = true
}

func (m *kl) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("kl_divergence:kl", m.value)
	}
	return o
}

func (m *kl) Clone() core.Metric { return newKL() }

// diffPDF reports the empirical probability density function of the
// pointwise differences as a Data-valued option plus its bin geometry.
type diffPDF struct {
	capture
	bins     uint64
	computed bool
	pdf      []float64
	lo, hi   float64
}

func newDiffPDF() *diffPDF { return &diffPDF{bins: 64} }

func (m *diffPDF) Prefix() string { return "diff_pdf" }

var diffPDFSchema = core.NewSchema(
	core.Field(keyDiffPDFBins, "histogram bins of the difference PDF", core.Closed(2, 1<<20),
		func(m *diffPDF) *uint64 { return &m.bins }),
)

func (m *diffPDF) Options() *core.Options             { return diffPDFSchema.Options(m) }
func (m *diffPDF) SetOptions(o *core.Options) error   { return diffPDFSchema.Set(m, o) }
func (m *diffPDF) CheckOptions(o *core.Options) error { return diffPDFSchema.Check(m, o) }
func (m *diffPDF) Schema() []core.OptionSpec          { return diffPDFSchema.Specs() }

func (m *diffPDF) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 {
		return
	}
	diffs := make([]float64, len(orig))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range orig {
		diffs[i] = dec[i] - orig[i]
		lo, hi = math.Min(lo, diffs[i]), math.Max(hi, diffs[i])
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	counts := make([]float64, m.bins)
	width := (hi - lo) / float64(m.bins)
	for _, d := range diffs {
		b := int((d - lo) / width)
		if b >= int(m.bins) {
			b = int(m.bins) - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	for i := range counts {
		counts[i] /= float64(len(diffs)) * width // density normalization
	}
	m.pdf, m.lo, m.hi = counts, lo, hi
	m.computed = true
}

func (m *diffPDF) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.Set("diff_pdf:pdf", core.NewOption(core.FromFloat64s(m.pdf)))
		o.SetValue("diff_pdf:min_diff", m.lo)
		o.SetValue("diff_pdf:max_diff", m.hi)
		o.SetValue(keyDiffPDFBins, m.bins)
	}
	return o
}

func (m *diffPDF) Clone() core.Metric { return newDiffPDF() }
