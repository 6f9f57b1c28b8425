package mgard

import (
	"testing"

	"pressio/internal/core"
)

// FuzzDecompressSlice drives the decoder, at both widths, with arbitrary
// bytes: it must never panic, and accepted streams must match their
// header's shape. (Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzDecompressSlice ./internal/mgard` to explore further.)
func FuzzDecompressSlice(f *testing.F) {
	good := goldenFile(f, "f32_2d_abs1e-3.stream")
	wide, err := CompressSlice([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, []uint64{3, 3},
		Params{Mode: core.BoundAbs, Bound: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	fast, err := CompressSlice(goldenIn[float32](f, "f32_2d_abs1e-3"), []uint64{17, 25},
		Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(wide)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(fast)
	f.Add(goldenFile(f, "f64_3d_abs1e-2.stream")) // two verify attempts
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
	if n, err := core.CheckedElems(dims, maxElems); err != nil || n != uint64(len(vals)) {
		t.Fatalf("accepted stream with inconsistent shape: %d values for %v (%v)", len(vals), dims, err)
	}
}
