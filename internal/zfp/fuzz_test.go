package zfp

import (
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
)

// FuzzDecompressSlice drives the block decoder, at both widths, with
// arbitrary bytes: it must never panic, and accepted streams must match
// their header's shape.
func FuzzDecompressSlice(f *testing.F) {
	good, _ := CompressSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, []uint64{2, 4},
		Params{Mode: ModeFixedAccuracy, Tolerance: 0.1})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("ZFG1"))
	// Truncated bodies (accepted before the consumed-bits check), 3-D so the
	// 64-value path is seeded, one of them 64-bit.
	field := smoothField(8, 8, 8, 4)
	wide := make([]float64, len(field))
	for i, v := range field {
		wide[i] = float64(v)
	}
	acc, _ := CompressSlice(field, []uint64{8, 8, 8}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3})
	rate, _ := CompressSlice(field, []uint64{8, 8, 8}, Params{Mode: ModeFixedRate, Rate: 8})
	acc64, _ := CompressSlice(wide, []uint64{8, 8, 8}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-6})
	f.Add(acc[:len(acc)/2])
	f.Add(acc[:40])
	f.Add(rate[:len(rate)/2])
	f.Add(acc64)
	f.Add(acc64[:len(acc64)/2])
	// The 1-D goldens, whole and cut in half: 4-value blocks whose planes
	// end in a verbatim run, 64-bit, budget-cut and noisy.
	for _, name := range []string{"f64_1d_acc1e-6", "f32_1d_rate8", "f32_1d_noisy_acc1e-3"} {
		stream, err := os.ReadFile(filepath.Join("testdata", "golden", name+".stream"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream)
		f.Add(stream[:len(stream)/2])
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkDecoded[float32](t, stream)
		checkDecoded[float64](t, stream)
	})
}

func checkDecoded[T core.Float](t *testing.T, stream []byte) {
	vals, dims, err := DecompressSlice[T](stream)
	if err != nil {
		return
	}
	n := uint64(1)
	for _, d := range dims {
		n *= d
	}
	if uint64(len(vals)) != n {
		t.Fatalf("accepted stream with inconsistent shape: %d vs %v", len(vals), dims)
	}
}
