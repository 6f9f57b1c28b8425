package sz

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pressio/internal/core"
)

func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func leBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkGolden pins the stream format: testdata/golden/<name>.stream is what
// the encoder of commit 46ffddb (before any entropy-stage rewrite) produced
// for <name>.in under p, and <name>.out what its decoder returned. Today's
// decoder must reproduce .out bit-exact and today's encoder the same stream.
// The streams recorded while an unset LosslessLevel meant DEFLATE's default
// were written at level 6, and their p says so.
func checkGolden[T core.Float](t *testing.T, name string, dims []uint64, p Params) {
	checkGoldenWith(t, name, name, dims, DecompressSlice[T],
		func(in []T) ([]byte, error) { return CompressSlice(in, dims, p) })
}

// checkGoldenWith is checkGolden for any of the package's encoder/decoder
// pairs (plain, SZMP block-parallel, SZPW pointwise-relative), with the
// input read from <input>.in.
func checkGoldenWith[T core.Float](t *testing.T, name, input string, dims []uint64,
	decode func([]byte) ([]T, []uint64, error), encode func([]T) ([]byte, error)) {
	stream := goldenFile(t, name+".stream")
	got, gotDims, err := decode(stream)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !slices.Equal(gotDims, dims) {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	if !bytes.Equal(leBytes(t, got), goldenFile(t, name+".out")) {
		t.Fatal("decoded values differ from the pinned output")
	}
	raw := goldenFile(t, input+".in")
	in := make([]T, len(got))
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, in); err != nil {
		t.Fatal(err)
	}
	re, err := encode(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(re, stream) {
		t.Fatalf("re-encoded stream differs from the pinned one (%d vs %d bytes): a format change needs a new magic", len(re), len(stream))
	}
}

func TestGoldenStreams(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T, string)
	}{
		{"f32_2d_abs1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, []uint64{24, 32}, Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 6})
		}},
		{"f64_3d_abs1e-4", func(t *testing.T, n string) {
			checkGolden[float64](t, n, []uint64{6, 8, 10}, Params{Mode: core.BoundAbs, Bound: 1e-4, LosslessLevel: 6})
		}},
		// The next two were recorded at commit 167347b, before the header
		// parsers moved into core.
		{"omp_f32_2d_abs1e-3", func(t *testing.T, n string) {
			dims, p := []uint64{15, 16}, Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 6}
			checkGoldenWith(t, n, n, dims,
				func(s []byte) ([]float32, []uint64, error) { return DecompressParallel[float32](s, 3) },
				func(in []float32) ([]byte, error) { return CompressParallel(in, dims, p, 3) })
		}},
		{"pw_f64_2d_rel1e-2", func(t *testing.T, n string) {
			dims, p := []uint64{10, 12}, DefaultParams()
			p.LosslessLevel = 6
			checkGoldenWith(t, n, n, dims, DecompressSlicePW[float64],
				func(in []float64) ([]byte, error) { return CompressSlicePW(in, dims, 1e-2, p) })
		}},
		// The next three were recorded at commit 1d7b975, before the sweeps
		// ran four rows at once: the edges of the skewed walk (rows left
		// over past the last group of four, a 4-D batch, the serial 1-D
		// chain) and outliers, NaN and ±Inf in scan order.
		{"f32_3d_nz37_outliers_abs1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, []uint64{5, 11, 37}, Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 6})
		}},
		{"f64_4d_abs1e-5", func(t *testing.T, n string) {
			checkGolden[float64](t, n, []uint64{3, 4, 6, 9}, Params{Mode: core.BoundAbs, Bound: 1e-5, LosslessLevel: 6})
		}},
		{"f32_1d_rel1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, []uint64{700}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3, LosslessLevel: 6})
		}},
		// The next two were recorded at commit 6f2086d with LosslessLevel 1,
		// the level an unset LosslessLevel resolves to since: scale-letkf in
		// serve_large's 16 planes (of 16x32, not 128x128) and the 1-D hacc
		// chain, whose DEFLATE pass still finds matches. CompressSlice now
		// writes hacc as SZG2 (the last case), so its SZG1 stream is pinned
		// through the Lorenzo encoder.
		{"f32_3d_16x16x32_abs1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, []uint64{16, 16, 32}, Params{Mode: core.BoundAbs, Bound: 1e-3})
		}},
		{"f32_1d_hacc_abs1e-3", func(t *testing.T, n string) {
			dims, p := []uint64{4096}, Params{Mode: core.BoundAbs, Bound: 1e-3}
			checkGoldenWith(t, n, n, dims, DecompressSlice[float32],
				func(in []float32) ([]byte, error) { return lorenzoStream(in, dims, p) })
		}},
		// Recorded when the direct mode came in, from the same input: the
		// first SZG2 stream.
		{"f32_1d_hacc_abs1e-3_szg2", func(t *testing.T, n string) {
			dims, p := []uint64{4096}, Params{Mode: core.BoundAbs, Bound: 1e-3}
			checkGoldenWith(t, n, "f32_1d_hacc_abs1e-3", dims, DecompressSlice[float32],
				func(in []float32) ([]byte, error) { return CompressSlice(in, dims, p) })
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, c.name) })
	}
}
