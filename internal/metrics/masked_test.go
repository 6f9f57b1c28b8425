package metrics

import (
	"math"
	"testing"

	"pressio/internal/core"
)

func TestMaskedExcludesPoints(t *testing.T) {
	orig := []float64{0, 0, 0, 0, 100} // last point is a dead pixel
	dec := []float64{0, 0, 0, 0, 0}    // compressor destroyed it
	mask := core.NewData(core.DTypeUint8, 5)
	mask.Bytes()[4] = 1 // exclude the dead pixel

	// Unmasked: huge max error.
	plain, _ := core.NewMetric("error_stat")
	res := run(plain, dataOf(orig), dataOf(dec), 5)
	if v, _ := res.GetFloat64("error_stat:max_abs_error"); v != 100 {
		t.Fatalf("unmasked max error %v", v)
	}

	// Masked: the dead pixel no longer counts.
	m, err := core.NewMetric("mask")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue("mask:metric", "error_stat").
		Set("mask:mask", core.NewOption(mask))
	if err := m.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	res = run(m, dataOf(orig), dataOf(dec), 5)
	if v, _ := res.GetFloat64("error_stat:max_abs_error"); v != 0 {
		t.Fatalf("masked max error %v, want 0", v)
	}
}

func TestMaskedValidatesMaskType(t *testing.T) {
	m, _ := core.NewMetric("mask")
	bad := core.NewOptions().Set("mask:mask", core.NewOption(core.NewData(core.DTypeFloat64, 3)))
	if err := m.Opts().Set(bad); err == nil {
		t.Fatal("float mask should be rejected")
	}
}

func TestCriticalPointsPreservation(t *testing.T) {
	// A clean sine has extrema every half period; identical data preserves
	// all of them.
	n := 500
	orig := make([]float64, n)
	for i := range orig {
		orig[i] = math.Sin(float64(i) / 10)
	}
	m, err := core.NewMetric("critical_points")
	if err != nil {
		t.Fatal(err)
	}
	res := run(m, dataOf(orig), dataOf(orig), n)
	oc, _ := res.GetUint64("critical_points:original")
	pf, _ := res.GetFloat64("critical_points:preserved_fraction")
	if oc < 10 {
		t.Fatalf("too few extrema detected: %d", oc)
	}
	if pf != 1 {
		t.Fatalf("identical data should preserve all extrema: %v", pf)
	}
	// Heavy smoothing (constant output) destroys every extremum.
	m2, _ := core.NewMetric("critical_points")
	flat := make([]float64, n)
	res = run(m2, dataOf(orig), dataOf(flat), n)
	if pf, _ := res.GetFloat64("critical_points:preserved_fraction"); pf != 0 {
		t.Fatalf("flat output should preserve nothing: %v", pf)
	}
}
