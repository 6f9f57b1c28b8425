// Conformance suite: every compressor in the registry is held to the
// framework's contracts, discovered through introspection rather than a
// hand-maintained list — precisely the compressor-agnostic programming
// model the paper argues for. A new plugin gets these tests for free the
// moment it registers.
package pressio

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pressio/internal/core"

	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/mgard"
	_ "pressio/internal/opt"
	_ "pressio/internal/pio"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

// behaviorExceptions lists plugins whose *contract* differs by design.
var behaviorExceptions = map[string]string{
	"sample":         "returns a subsample, not the full shape",
	"fault_injector": "corrupts its own stream by design",
	"noise_injector": "perturbs the input by design",
}

func conformanceInput() *core.Data {
	rng := rand.New(rand.NewSource(77))
	vals := make([]float32, 12*16*20)
	i := 0
	for z := 0; z < 12; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 20; x++ {
				vals[i] = float32(10*math.Sin(float64(x)/5)*math.Cos(float64(y)/4) +
					math.Sin(float64(z)) + 0.01*rng.NormFloat64())
				i++
			}
		}
	}
	return core.FromFloat32s(vals, 12, 16, 20)
}

func TestConformanceAllCompressors(t *testing.T) {
	in := conformanceInput()
	for _, name := range core.SupportedCompressors() {
		if name == "thirdparty_test" {
			continue // registered by another test file
		}
		name := name
		t.Run(name, func(t *testing.T) {
			if why, ok := behaviorExceptions[name]; ok {
				t.Skipf("contract exception: %s", why)
			}
			c, err := core.NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			// Contract 1: configuration must advertise thread safety,
			// stability and version.
			cfg := c.Configuration()
			if _, err := cfg.GetString(core.KeyThreadSafe); err != nil {
				t.Errorf("missing %s", core.KeyThreadSafe)
			}
			if _, err := cfg.GetString(core.KeyStability); err != nil {
				t.Errorf("missing %s", core.KeyStability)
			}
			if _, err := cfg.GetString(core.KeyVersion); err != nil {
				t.Errorf("missing %s", core.KeyVersion)
			}

			// Contract 2: options are introspectable and SetOptions of the
			// plugin's own Options() is accepted (get-set identity).
			opts := c.Options()
			if err := c.SetOptions(opts); err != nil {
				t.Fatalf("SetOptions(own options): %v", err)
			}

			// Determine the bound support through introspection alone.
			supportsAbs := false
			if o, ok := opts.Get(core.KeyAbs); ok && o.Type() != core.OptUnset {
				supportsAbs = true
			}
			bound := 0.01
			if supportsAbs {
				if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, bound)); err != nil {
					t.Fatalf("set pressio:abs: %v", err)
				}
			}

			// Contract 3: the input is never clobbered (§IV-B).
			before := in.Clone()
			comp, err := core.Compress(c, in)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			if !in.Equal(before) {
				t.Fatal("compressor clobbered its input")
			}
			if comp.ByteLen() == 0 {
				t.Fatal("empty compressed stream")
			}

			// Contract 4: decompression restores dtype and shape.
			dec, err := core.Decompress(c, comp, in.DType(), in.Dims()...)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if dec.DType() != in.DType() || dec.Len() != in.Len() {
				t.Fatalf("shape not restored: %v", dec)
			}

			// Contract 5: if the plugin advertises pressio:abs, the bound
			// must hold pointwise.
			if supportsAbs {
				worst := 0.0
				orig := in.Float32s()
				for i, v := range dec.Float32s() {
					if d := math.Abs(float64(v) - float64(orig[i])); d > worst {
						worst = d
					}
				}
				if worst > bound {
					t.Fatalf("advertised abs bound violated: %g > %g", worst, bound)
				}
			}

			// Contract 6: clones are independent (options set on the clone
			// do not leak back).
			clone := c.Clone()
			if supportsAbs {
				if err := clone.SetOptions(core.NewOptions().SetValue(core.KeyAbs, bound/10)); err != nil {
					t.Fatalf("clone SetOptions: %v", err)
				}
				if got, err := c.Options().GetFloat64(core.KeyAbs); err == nil && got != bound {
					t.Fatalf("clone options leaked: %v", got)
				}
			}

			// Contract 7: a clone can still decompress the original's
			// stream (stream self-description, §IV-B).
			dec2, err := core.Decompress(clone, comp, in.DType(), in.Dims()...)
			if err != nil {
				t.Fatalf("clone decompress: %v", err)
			}
			if dec2.Len() != in.Len() {
				t.Fatal("clone decompress shape mismatch")
			}
		})
	}
}

func TestConformanceLosslessExactness(t *testing.T) {
	// Plugins whose default configuration promises bit-exact round trips.
	in := conformanceInput()
	for _, name := range []string{"noop", "flate", "gzip", "zlib", "rle", "shuffle", "bitshuffle", "delta", "fpzip"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := core.Decompress(c, comp, in.DType(), in.Dims()...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !dec.Equal(in) {
			t.Fatalf("%s: default round trip not bit-exact", name)
		}
	}
}

func TestConformanceDecompressGarbage(t *testing.T) {
	// No plugin may panic on garbage input, and every decoder reports it as
	// the caller's fault: the error wraps core.ErrCorrupt, so the daemon
	// answers 400 instead of 500.
	random := make([]byte, 31)
	rand.New(rand.NewSource(41)).Read(random)
	for _, name := range core.SupportedCompressors() {
		if name == "thirdparty_test" {
			continue
		}
		for _, garbage := range [][]byte{random, []byte("definitely not a compressed stream, not even close")} {
			c, err := core.NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panicked on garbage: %v", name, r)
					}
				}()
				if _, err := core.Decompress(c, core.NewBytes(garbage), core.DTypeFloat32, 4, 4); !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("%s: decoding %d garbage bytes returned %v, want an error wrapping core.ErrCorrupt", name, len(garbage), err)
				}
			}()
		}
	}
}
