// Package stats provides the statistical machinery the paper's evaluation
// uses: descriptive statistics, percentiles, histograms for the Figure 3
// overhead distribution, and the Wilcoxon signed-rank test of §VI used to
// decide whether the interface overhead differs significantly from zero.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFew reports too few observations for a test.
var ErrTooFew = errors.New("stats: too few observations")

// Median returns the middle value (mean of the two middle values for even
// lengths).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) with linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Min returns the smallest value.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// Max returns the largest value.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// Histogram bins xs into n equal-width bins over [lo, hi] and returns the
// counts plus the bin edges (n+1 values).
func Histogram(xs []float64, lo, hi float64, n int) (counts []int, edges []float64) {
	counts = make([]int, n)
	edges = make([]float64, n+1)
	width := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		if x < lo || x > hi {
			continue
		}
		b := int((x - lo) / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, edges
}

// WilcoxonResult holds the outcome of a Wilcoxon signed-rank test.
type WilcoxonResult struct {
	// W is the smaller of the positive/negative rank sums.
	W float64
	// N is the number of non-zero differences used.
	N int
	// Z is the normal approximation test statistic.
	Z float64
	// P is the two-sided p-value (normal approximation with tie and
	// continuity corrections).
	P float64
}

// WilcoxonSignedRank tests the hypothesis that the paired differences
// a[i]-b[i] are symmetric about zero. It mirrors §VI's use: with p above
// the significance level there is insufficient evidence that the overhead
// differs from zero.
func WilcoxonSignedRank(a, b []float64) (WilcoxonResult, error) {
	if len(a) != len(b) {
		return WilcoxonResult{}, errors.New("stats: length mismatch")
	}
	type diff struct {
		abs  float64
		sign float64
	}
	var diffs []diff
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue // standard practice: drop zero differences
		}
		s := 1.0
		if d < 0 {
			s = -1
		}
		diffs = append(diffs, diff{math.Abs(d), s})
	}
	n := len(diffs)
	if n < 6 {
		return WilcoxonResult{N: n}, ErrTooFew
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].abs < diffs[j].abs })
	// Assign mid-ranks, accumulating the tie correction term.
	ranks := make([]float64, n)
	tieCorrection := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && diffs[j].abs == diffs[i].abs {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}
	wPlus, wMinus := 0.0, 0.0
	for i, d := range diffs {
		if d.sign > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w := math.Min(wPlus, wMinus)
	nf := float64(n)
	mean := nf * (nf + 1) / 4
	variance := nf*(nf+1)*(2*nf+1)/24 - tieCorrection/48
	if variance <= 0 {
		return WilcoxonResult{W: w, N: n, P: 1}, nil
	}
	// Continuity correction.
	z := (w - mean + 0.5) / math.Sqrt(variance)
	p := 2 * normalCDF(-math.Abs(z))
	if p > 1 {
		p = 1
	}
	return WilcoxonResult{W: w, N: n, Z: z, P: p}, nil
}

// normalCDF evaluates the standard normal CDF via erfc.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SplitMix64 is one step of the splitmix64 generator (Steele, Lea & Flood):
// it advances *state by the golden-ratio increment and returns the mixed
// output. It is the tree's one seeded PRNG for jitter and hash finalizing:
// no global state, no allocation, reproducible for a fixed seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
