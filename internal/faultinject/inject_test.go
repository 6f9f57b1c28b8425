package faultinject

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/sz"
)

// injectorField is the input both injector goldens run on.
func injectorField() *core.Data {
	vals := make([]float32, 32*32)
	for i := range vals {
		vals[i] = float32(10 * math.Sin(float64(i%32)/5) * math.Cos(float64(i/32)/4))
	}
	return core.FromFloat32s(vals, 32, 32)
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the golden's %d (run with -update only if the change is intended)", name, len(got), len(want))
	}
}

// TestFaultInjectorGolden pins the stream fault_injector emits for seed 7
// with 4 faults over sz_threadsafe.
func TestFaultInjectorGolden(t *testing.T) {
	c, err := core.NewCompressor("fault_injector")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().
		SetValue("fault_injector:compressor", "sz_threadsafe").
		SetValue("fault_injector:faults", uint64(4)).
		SetValue("fault_injector:seed", int64(7)).
		SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	got, err := core.Compress(c, injectorField())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fault_injector.golden", got.Bytes())
}

// TestNoiseInjectorGolden pins the input noise_injector hands its child for
// seed 3, uniform noise then gaussian noise, each at scale 0.1.
func TestNoiseInjectorGolden(t *testing.T) {
	in := injectorField()
	var got []byte
	for _, dist := range []string{"uniform", "gaussian"} {
		c, err := core.NewCompressor("noise_injector")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetOptions(core.NewOptions().
			SetValue("noise_injector:compressor", "noop").
			SetValue("noise_injector:distribution", dist).
			SetValue("noise_injector:scale", 0.1).
			SetValue("noise_injector:seed", int64(3))); err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		noised, err := core.Decompress(c, comp, in.DType(), in.Dims()...)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, noised.Bytes()...)
	}
	checkGolden(t, "noise_injector.golden", got)
}

func maxAbsDiff(a, b *core.Data) float64 {
	av, bv := a.AsFloat64s(), b.AsFloat64s()
	worst := 0.0
	for i := range av {
		worst = math.Max(worst, math.Abs(av[i]-bv[i]))
	}
	return worst
}

func TestFaultInjectorCorruptsStream(t *testing.T) {
	in := injectorField()
	clean, _ := core.NewCompressor("sz_threadsafe")
	if err := clean.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	want, err := core.Compress(clean, in)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := core.NewCompressor("fault_injector")
	if err := c.SetOptions(core.NewOptions().
		SetValue("fault_injector:compressor", "sz_threadsafe").
		SetValue("fault_injector:faults", uint64(4)).
		SetValue("fault_injector:seed", int64(7)).
		SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	got, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(want) {
		t.Fatal("fault injector did not flip any bits")
	}
	// Decompressing the corrupted stream must not panic (errors are fine).
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decompressor panicked on corrupted stream: %v", r)
			}
		}()
		_, _ = core.Decompress(c, got, core.DTypeFloat32, 32, 32)
	}()
}

func TestNoiseInjectorAddsBoundedNoise(t *testing.T) {
	in := injectorField()
	c, _ := core.NewCompressor("noise_injector")
	if err := c.SetOptions(core.NewOptions().
		SetValue("noise_injector:compressor", "noop").
		SetValue("noise_injector:distribution", "uniform").
		SetValue("noise_injector:scale", 0.1).
		SetValue("noise_injector:seed", int64(3))); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, in.DType(), in.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	worst := maxAbsDiff(in, dec)
	if worst == 0 {
		t.Fatal("noise injector added no noise")
	}
	if worst > 0.1+1e-6 {
		t.Fatalf("uniform noise exceeded scale: %g", worst)
	}
	if err := c.SetOptions(core.NewOptions().SetValue("noise_injector:distribution", "cauchy")); err == nil {
		t.Fatal("expected distribution validation error")
	}
}
