package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescriptives(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Median(xs) != 2.5 {
		t.Fatalf("median %v", Median(xs))
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Fatal("min/max wrong")
	}
	odd := []float64{5, 1, 9}
	if Median(odd) != 5 {
		t.Fatalf("odd median %v", Median(odd))
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if Quantile(xs, 0) != 10 || Quantile(xs, 1) != 50 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(xs, 0.25) != 20 {
		t.Fatalf("q25 %v", Quantile(xs, 0.25))
	}
	if Quantile(xs, 0.5) != 30 {
		t.Fatalf("q50 %v", Quantile(xs, 0.5))
	}
	// Interpolated.
	if got := Quantile([]float64{0, 1}, 0.75); got != 0.75 {
		t.Fatalf("interp %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(raw, a) <= Quantile(raw, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.55, 0.9, 1.0, -5, 7}
	counts, edges := Histogram(xs, 0, 1, 2)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts %v", counts)
	}
	if edges[0] != 0 || edges[1] != 0.5 || edges[2] != 1 {
		t.Fatalf("edges %v", edges)
	}
}

func TestWilcoxonNoEffect(t *testing.T) {
	// Paired samples differing only by symmetric noise: p should be large.
	rng := rand.New(rand.NewSource(1))
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := rng.Float64() * 100
		a[i] = base + rng.NormFloat64()
		b[i] = base + rng.NormFloat64()
	}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Fatalf("no-effect pairs rejected: p=%v z=%v", res.P, res.Z)
	}
}

func TestWilcoxonDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 60
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := rng.Float64() * 100
		a[i] = base + 1.0 + rng.NormFloat64()*0.3 // consistent +1 shift
		b[i] = base
	}
	res, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("clear shift not detected: p=%v", res.P)
	}
}

func TestWilcoxonHandlesTiesAndZeros(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // all zero differences
	if _, err := WilcoxonSignedRank(a, b); err == nil {
		t.Fatal("all-zero differences should report too few observations")
	}
	// Heavy ties among differences must not produce NaN.
	c := []float64{2, 2, 2, 2, 0, 0, 0, 1, 1, 3}
	d := []float64{1, 1, 1, 1, 1, 1, 1, 0, 0, 0}
	res, err := WilcoxonSignedRank(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.P) || res.P < 0 || res.P > 1 {
		t.Fatalf("p out of range: %v", res.P)
	}
}

func TestWilcoxonLengthMismatch(t *testing.T) {
	if _, err := WilcoxonSignedRank([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestNormalCDF(t *testing.T) {
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Fatal("cdf(0) != 0.5")
	}
	if math.Abs(normalCDF(1.959964)-0.975) > 1e-4 {
		t.Fatalf("cdf(1.96) = %v", normalCDF(1.959964))
	}
}
