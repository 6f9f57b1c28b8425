package bitgroom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pressio/internal/core"
)

func TestGroomPreservesSignificantDigits32(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float32, 100)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)))
		}
		orig := append([]float32(nil), vals...)
		nsd := 1 + rng.Intn(6)
		GroomFloat32(vals, nsd)
		tol := math.Pow(10, -float64(nsd))
		for i := range vals {
			if orig[i] == 0 {
				continue
			}
			rel := math.Abs(float64(vals[i]-orig[i])) / math.Abs(float64(orig[i]))
			if rel > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundPreservesSignificantDigits64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	orig := append([]float64(nil), vals...)
	RoundFloat64(vals, 4)
	for i := range vals {
		if orig[i] == 0 {
			continue
		}
		rel := math.Abs(vals[i]-orig[i]) / math.Abs(orig[i])
		if rel > 1e-4 {
			t.Fatalf("elem %d rel error %g > 1e-4", i, rel)
		}
	}
}

func TestSpecialsUntouched(t *testing.T) {
	vals := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1.2345}
	GroomFloat32(vals, 2)
	if !math.IsNaN(float64(vals[0])) || !math.IsInf(float64(vals[1]), 1) || !math.IsInf(float64(vals[2]), -1) {
		t.Fatal("special values clobbered by grooming")
	}
	RoundFloat32(vals, 2)
	if !math.IsNaN(float64(vals[0])) || !math.IsInf(float64(vals[1]), 1) {
		t.Fatal("special values clobbered by rounding")
	}
}

func TestGroomingReducesEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float32, 1<<14)
	for i := range vals {
		vals[i] = float32(100 + rng.Float64())
	}
	in := core.FromFloat32s(vals, uint64(len(vals)))
	for _, name := range []string{"bit_grooming", "digit_rounding"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetOptions(core.NewOptions().SetValue(name+":nsd", int32(3))); err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(in.ByteLen()) / float64(comp.ByteLen())
		if ratio < 1.7 {
			t.Fatalf("%s: ratio %f too low after grooming to 3 digits", name, ratio)
		}
		dec, err := core.Decompress(c, comp, core.DTypeFloat32, uint64(len(vals)))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dec.Float32s() {
			rel := math.Abs(float64(v-vals[i])) / math.Abs(float64(vals[i]))
			if rel > 1e-3 {
				t.Fatalf("%s: elem %d rel error %g", name, i, rel)
			}
		}
	}
}

func TestNSDValidation(t *testing.T) {
	c, _ := core.NewCompressor("bit_grooming")
	if err := c.SetOptions(core.NewOptions().SetValue("bit_grooming:nsd", int32(0))); err == nil {
		t.Fatal("expected nsd validation error")
	}
	if err := c.SetOptions(core.NewOptions().SetValue("bit_grooming:nsd", int32(99))); err == nil {
		t.Fatal("expected nsd validation error")
	}
}

func TestRejectsIntegers(t *testing.T) {
	c, _ := core.NewCompressor("digit_rounding")
	if _, err := core.Compress(c, core.FromInt64s([]int64{1, 2})); err == nil {
		t.Fatal("expected dtype error")
	}
}

func TestInputNotClobbered(t *testing.T) {
	// §IV-B: compressors must not clobber caller buffers.
	vals := []float32{1.23456789, 2.3456789, 3.456789}
	in := core.FromFloat32s(vals, 3)
	before := in.Clone()
	c, _ := core.NewCompressor("bit_grooming")
	if _, err := core.Compress(c, in); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(before) {
		t.Fatal("compressor clobbered its input")
	}
}

// The stream records no element count, so the output the caller declares
// bounds the inflate: a smaller declared shape is refused.
func TestInflateBoundedByDeclaredOutput(t *testing.T) {
	in := core.FromFloat32s(make([]float32, 4096), 64, 64)
	for _, name := range []string{"bit_grooming", "digit_rounding"} {
		c, _ := core.NewCompressor(name)
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Decompress(c, comp, core.DTypeFloat32, 64, 64); err != nil {
			t.Fatalf("%s: the declared shape: %v", name, err)
		}
		if _, err := core.Decompress(c, comp, core.DTypeFloat32, 64); err == nil {
			t.Fatalf("%s: 256 declared bytes for 16384 decoded", name)
		}
	}
}
