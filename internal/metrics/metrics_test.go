package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pressio/internal/core"
	_ "pressio/internal/sz" // register the sz plugin for end-to-end tests
)

// run pushes (orig, dec) through a metric as if a compressor had produced
// compressed bytes and then decompressed them.
func run(m core.Metric, orig, dec *core.Data, compressedLen int) *core.Options {
	comp := core.NewBytes(make([]byte, compressedLen))
	m.BeginCompress(orig)
	m.EndCompress(orig, comp, nil)
	m.BeginDecompress(comp)
	m.EndDecompress(comp, dec, nil)
	return m.Results()
}

func dataOf(vals []float64) *core.Data { return core.FromFloat64s(vals, uint64(len(vals))) }

func TestSizeMetric(t *testing.T) {
	orig := dataOf(make([]float64, 1000)) // 8000 bytes
	m, err := core.NewMetric("size")
	if err != nil {
		t.Fatal(err)
	}
	res := run(m, orig, orig.Clone(), 2000)
	ratio, err := res.GetFloat64("size:compression_ratio")
	if err != nil || ratio != 4 {
		t.Fatalf("ratio %v err %v", ratio, err)
	}
	br, _ := res.GetFloat64("size:bit_rate")
	if br != 16 {
		t.Fatalf("bit rate %v", br)
	}
	cs, _ := res.GetUint64("size:compressed_size")
	if cs != 2000 {
		t.Fatalf("compressed size %v", cs)
	}
}

func TestErrorStatAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	orig := make([]float64, n)
	dec := make([]float64, n)
	for i := range orig {
		orig[i] = rng.NormFloat64() * 10
		dec[i] = orig[i] + rng.NormFloat64()*0.1
	}
	m, _ := core.NewMetric("error_stat")
	res := run(m, dataOf(orig), dataOf(dec), n)

	// Brute force reference.
	var maxAbs, sumSq, sum float64
	minE, maxE := math.Inf(1), math.Inf(-1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range orig {
		e := dec[i] - orig[i]
		maxAbs = math.Max(maxAbs, math.Abs(e))
		sumSq += e * e
		sum += e
		minE = math.Min(minE, e)
		maxE = math.Max(maxE, e)
		lo, hi = math.Min(lo, orig[i]), math.Max(hi, orig[i])
	}
	check := func(key string, want float64) {
		t.Helper()
		got, err := res.GetFloat64(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: got %g want %g", key, got, want)
		}
	}
	check("error_stat:max_abs_error", maxAbs)
	check("error_stat:mse", sumSq/float64(n))
	check("error_stat:rmse", math.Sqrt(sumSq/float64(n)))
	check("error_stat:average_error", sum/float64(n))
	check("error_stat:min_error", minE)
	check("error_stat:max_error", maxE)
	check("error_stat:value_range", hi-lo)
	check("error_stat:psnr", 20*math.Log10(hi-lo)-10*math.Log10(sumSq/float64(n)))
}

// TestErrorStatNonFinite holds error_stat to one rule for non-finite
// values: NaN must decode as NaN and ±Inf exactly, at no cost; a finite
// input decoded as NaN or ±Inf is unbounded error, so no PSNR floor is met.
func TestErrorStatNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name      string
		orig, dec []float64
		maxAbs    float64
		psnrInf   bool // the PSNR reads +Inf
	}{
		{"finite decoded as NaN", []float64{1, 2, 3, 4}, []float64{1, nan, 3, 4}, inf, false},
		{"finite decoded as +Inf", []float64{1, 2, 3, 4}, []float64{1, inf, 3, 4}, inf, false},
		{"finite decoded as -Inf", []float64{1, 2, 3, 4}, []float64{1, -inf, 3, 4}, inf, false},
		{"NaN decoded as finite", []float64{1, nan, 3, 4}, []float64{1, 2, 3, 4}, inf, false},
		{"+Inf decoded as -Inf", []float64{1, inf, 3, 4}, []float64{1, -inf, 3, 4}, inf, false},
		{"NaN round trip", []float64{1, nan, 3, 4}, []float64{1, nan, 3, 4}, 0, true},
		{"exact ±Inf round trip", []float64{1, inf, -inf, 4}, []float64{1, inf, -inf, 4}, 0, true},
		{"NaN round trip beside a finite error", []float64{1, nan, 3, 4}, []float64{1.5, nan, 3, 4}, 0.5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _ := core.NewMetric("error_stat")
			res := run(m, dataOf(c.orig), dataOf(c.dec), len(c.orig))
			if got, err := res.GetFloat64("error_stat:max_abs_error"); err != nil || got != c.maxAbs {
				t.Fatalf("max_abs_error %v (err %v), want %v", got, err, c.maxAbs)
			}
			psnr, err := res.GetFloat64("error_stat:psnr")
			if err != nil || math.IsNaN(psnr) || math.IsInf(psnr, 1) != c.psnrInf {
				t.Fatalf("psnr %v (err %v), want +Inf: %v", psnr, err, c.psnrInf)
			}
		})
	}
}

func TestPearsonPerfectAndNoisy(t *testing.T) {
	orig := []float64{1, 2, 3, 4, 5, 6}
	m, _ := core.NewMetric("pearson")
	res := run(m, dataOf(orig), dataOf(orig), 10)
	if r, _ := res.GetFloat64("pearson:r"); math.Abs(r-1) > 1e-12 {
		t.Fatalf("identical data r = %v", r)
	}
	anti := []float64{6, 5, 4, 3, 2, 1}
	m2, _ := core.NewMetric("pearson")
	res = run(m2, dataOf(orig), dataOf(anti), 10)
	if r, _ := res.GetFloat64("pearson:r"); math.Abs(r+1) > 1e-12 {
		t.Fatalf("reversed data r = %v", r)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Construct decompressed = orig + alternating error: lag-1
	// autocorrelation of errors must be strongly negative.
	n := 1000
	orig := make([]float64, n)
	dec := make([]float64, n)
	for i := range orig {
		orig[i] = float64(i)
		e := 0.5
		if i%2 == 1 {
			e = -0.5
		}
		dec[i] = orig[i] + e
	}
	m, _ := core.NewMetric("autocorrelation")
	res := run(m, dataOf(orig), dataOf(dec), n)
	r, err := res.GetFloat64("autocorrelation:lag_1")
	if err != nil {
		t.Fatal(err)
	}
	if r > -0.99 {
		t.Fatalf("alternating errors should give lag-1 autocorr near -1, got %v", r)
	}
}

func TestAutocorrelationMultipleLags(t *testing.T) {
	m, _ := core.NewMetric("autocorrelation")
	if err := m.Opts().Set(core.NewOptions().SetValue("autocorrelation:max_lag", uint64(3))); err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, 100)
	dec := make([]float64, 100)
	rng := rand.New(rand.NewSource(2))
	for i := range orig {
		orig[i] = rng.Float64()
		dec[i] = orig[i] + rng.Float64()*0.01
	}
	res := run(m, dataOf(orig), dataOf(dec), 10)
	for _, lag := range []string{"lag_1", "lag_2", "lag_3"} {
		if !res.Has("autocorrelation:" + lag) {
			t.Fatalf("missing %s", lag)
		}
	}
}

func TestKSTestIdenticalAndShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := make([]float64, 2000)
	for i := range orig {
		orig[i] = rng.NormFloat64()
	}
	m, _ := core.NewMetric("ks_test")
	res := run(m, dataOf(orig), dataOf(orig), 10)
	if d, _ := res.GetFloat64("ks_test:d"); d > 1e-9 {
		t.Fatalf("identical samples D = %v", d)
	}
	if p, _ := res.GetFloat64("ks_test:pvalue"); p < 0.99 {
		t.Fatalf("identical samples p = %v", p)
	}
	// Large shift must be detected.
	shifted := make([]float64, len(orig))
	for i := range shifted {
		shifted[i] = orig[i] + 3
	}
	m2, _ := core.NewMetric("ks_test")
	res = run(m2, dataOf(orig), dataOf(shifted), 10)
	if d, _ := res.GetFloat64("ks_test:d"); d < 0.5 {
		t.Fatalf("shifted samples D = %v", d)
	}
	if p, _ := res.GetFloat64("ks_test:pvalue"); p > 0.01 {
		t.Fatalf("shifted samples p = %v", p)
	}
}

func TestKSStatisticMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64() + 0.2
		}
		got := ksStatistic(a, b)
		// Brute force: evaluate |F1-F2| at all sample points.
		as := append([]float64(nil), a...)
		bs := append([]float64(nil), b...)
		sort.Float64s(as)
		sort.Float64s(bs)
		want := 0.0
		cdf := func(s []float64, x float64) float64 {
			c := sort.SearchFloat64s(s, x+1e-15) // count <= x
			for c < len(s) && s[c] <= x {
				c++
			}
			return float64(c) / float64(len(s))
		}
		for _, x := range append(as, bs...) {
			if d := math.Abs(cdf(as, x) - cdf(bs, x)); d > want {
				want = d
			}
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKLDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := make([]float64, 5000)
	for i := range orig {
		orig[i] = rng.NormFloat64()
	}
	m, _ := core.NewMetric("kl_divergence")
	res := run(m, dataOf(orig), dataOf(orig), 10)
	klSame, _ := res.GetFloat64("kl_divergence:kl")
	if klSame > 1e-9 {
		t.Fatalf("KL of identical data %v", klSame)
	}
	shifted := make([]float64, len(orig))
	for i := range shifted {
		shifted[i] = orig[i]*2 + 1
	}
	m2, _ := core.NewMetric("kl_divergence")
	res = run(m2, dataOf(orig), dataOf(shifted), 10)
	klDiff, _ := res.GetFloat64("kl_divergence:kl")
	if klDiff < 0.05 {
		t.Fatalf("KL of different distributions too small: %v", klDiff)
	}
}

func TestDiffPDF(t *testing.T) {
	orig := make([]float64, 1000)
	dec := make([]float64, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := range orig {
		orig[i] = rng.Float64()
		dec[i] = orig[i] + (rng.Float64()-0.5)*0.2
	}
	m, _ := core.NewMetric("diff_pdf")
	res := run(m, dataOf(orig), dataOf(dec), 10)
	pdf, err := res.GetData("diff_pdf:pdf")
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := res.GetFloat64("diff_pdf:min_diff")
	hi, _ := res.GetFloat64("diff_pdf:max_diff")
	// Density must integrate to ~1.
	width := (hi - lo) / float64(pdf.Len())
	integral := 0.0
	for _, p := range pdf.Float64s() {
		integral += p * width
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("pdf integrates to %v", integral)
	}
}

func TestSpatialError(t *testing.T) {
	orig := make([]float64, 100)
	dec := make([]float64, 100)
	copy(dec, orig)
	for i := 0; i < 25; i++ {
		dec[i] = 1 // error of 1 on 25% of points
	}
	m, _ := core.NewMetric("spatial_error")
	if err := m.Opts().Set(core.NewOptions().SetValue("spatial_error:threshold", 0.5)); err != nil {
		t.Fatal(err)
	}
	res := run(m, dataOf(orig), dataOf(dec), 10)
	if pct, _ := res.GetFloat64("spatial_error:percent"); pct != 25 {
		t.Fatalf("percent %v", pct)
	}
	if err := m.Opts().Set(core.NewOptions().SetValue("spatial_error:threshold", -1.0)); err == nil {
		t.Fatal("expected threshold validation error")
	}
}

func TestKthError(t *testing.T) {
	orig := make([]float64, 10)
	dec := make([]float64, 10)
	for i := range dec {
		dec[i] = float64(i) // errors 0..9
	}
	for k, want := range map[uint64]float64{1: 9, 2: 8, 5: 5, 10: 0} {
		m, _ := core.NewMetric("kth_error")
		if err := m.Opts().Set(core.NewOptions().SetValue("kth_error:k", k)); err != nil {
			t.Fatal(err)
		}
		res := run(m, dataOf(orig), dataOf(dec), 10)
		if got, _ := res.GetFloat64("kth_error:value"); got != want {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestRegionOfInterest(t *testing.T) {
	// 4x4 grid, ROI = rows 1-2, cols 1-2.
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	orig := core.FromFloat64s(vals, 4, 4)
	dec := orig.Clone()
	m, _ := core.NewMetric("region_of_interest")
	opts := core.NewOptions()
	start := core.NewData(core.DTypeUint64, 2)
	copy(start.Uint64s(), []uint64{1, 1})
	end := core.NewData(core.DTypeUint64, 2)
	copy(end.Uint64s(), []uint64{3, 3})
	opts.Set("region_of_interest:start", core.NewOption(start))
	opts.Set("region_of_interest:end", core.NewOption(end))
	if err := m.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	res := run(m, orig, dec, 10)
	// ROI values: 5,6,9,10 → mean 7.5
	if got, _ := res.GetFloat64("region_of_interest:original_mean"); got != 7.5 {
		t.Fatalf("roi mean %v", got)
	}
	if drift, _ := res.GetFloat64("region_of_interest:mean_drift"); drift != 0 {
		t.Fatalf("drift %v", drift)
	}
}

func TestCompositeThroughCompressor(t *testing.T) {
	// End-to-end: metrics attached to a real compressor handle.
	rng := rand.New(rand.NewSource(6))
	vals := make([]float32, 32*32)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/10) + 0.01*rng.NormFloat64())
	}
	in := core.FromFloat32s(vals, 32, 32)
	c, err := core.NewCompressor("sz")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.001)); err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMetrics("size", "time", "error_stat")
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(m)
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Decompress(c, comp, core.DTypeFloat32, 32, 32); err != nil {
		t.Fatal(err)
	}
	res := c.MetricsResults()
	ratio, err := res.GetFloat64("size:compression_ratio")
	if err != nil || ratio <= 1 {
		t.Fatalf("ratio %v err %v", ratio, err)
	}
	maxAbs, err := res.GetFloat64("error_stat:max_abs_error")
	if err != nil || maxAbs > 0.001 {
		t.Fatalf("max_abs_error %v err %v", maxAbs, err)
	}
	if !res.Has("time:compress") {
		t.Fatal("missing time:compress")
	}
}

func TestPrinterHookOrder(t *testing.T) {
	m, _ := core.NewMetric("printer")
	orig := dataOf([]float64{1, 2, 3})
	run(m, orig, orig.Clone(), 3)
	events, err := m.Results().GetStrings("printer:events")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"begin_compress", "end_compress", "begin_decompress", "end_decompress"}
	if len(events) != len(want) {
		t.Fatalf("events %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %v", events)
		}
	}
}

func TestCloneResetsState(t *testing.T) {
	m, _ := core.NewMetric("error_stat")
	orig := dataOf([]float64{1, 2, 3})
	dec := dataOf([]float64{1.1, 2.1, 3.1})
	run(m, orig, dec, 3)
	if !m.Results().Has("error_stat:max_abs_error") {
		t.Fatal("metric did not compute")
	}
	clone := m.Clone()
	if clone.Results().Has("error_stat:max_abs_error") {
		t.Fatal("clone inherited measurement state")
	}
}
