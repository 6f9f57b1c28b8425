package zfp

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
// the reference bit-serial coder (commits 46ffddb and 729c0b6, before the
// embedded coder was rewritten) produced for <in>.in under p, and <name>.out
// what its decoder returned. Today's decoder must reproduce .out bit-exact
// and today's encoder the same stream.
func checkGolden[T core.Float](t *testing.T, name, in string, dims []uint64, p Params) {
	stream := goldenFile(t, name+".stream")
	got, gotDims, err := DecompressSlice[T](stream)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !slices.Equal(gotDims, dims) {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	if !bytes.Equal(leBytes(t, got), goldenFile(t, name+".out")) {
		t.Fatal("decoded values differ from the pinned output")
	}
	vals := make([]T, len(got))
	if err := binary.Read(bytes.NewReader(goldenFile(t, in+".in")), binary.LittleEndian, vals); err != nil {
		t.Fatal(err)
	}
	re, err := CompressSlice(vals, dims, p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(re, stream) {
		t.Fatalf("re-encoded stream differs from the pinned one (%d vs %d bytes): a format change needs a new magic", len(re), len(stream))
	}
}

func TestGoldenStreams(t *testing.T) {
	d3 := []uint64{9, 10, 11} // partial blocks on every axis, one all-zero block
	for _, c := range []struct {
		name string
		run  func(*testing.T, string)
	}{
		{"f32_2d_acc1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, n, []uint64{24, 32}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3})
		}},
		{"f32_1d_acc1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_1d", []uint64{517}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3})
		}},
		{"f32_3d_acc1e-2", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_3d", d3, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-2})
		}},
		{"f32_3d_rate8", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_3d", d3, Params{Mode: ModeFixedRate, Rate: 8})
		}},
		{"f32_3d_prec12", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_3d", d3, Params{Mode: ModeFixedPrecision, Precision: 12})
		}},
		{"f64_3d_acc1e-6", func(t *testing.T, n string) {
			checkGolden[float64](t, n, "f64_3d", []uint64{7, 8, 9}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-6})
		}},
		// Recorded at commit ad60909, before the 4-value block coder moved to packed plane
		// words: 1-D blocks whose planes go out as one verbatim run once all
		// four coefficients are significant. At 64 bits the run spans four
		// words; at rate 8 the budget ends it mid-plane; the noisy
		// (hacc-shaped: positions in halos, 601 values) field reaches it early.
		{"f64_1d_acc1e-6", func(t *testing.T, n string) {
			checkGolden[float64](t, n, "f64_1d", []uint64{389}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-6})
		}},
		{"f32_1d_rate8", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_1d", []uint64{517}, Params{Mode: ModeFixedRate, Rate: 8})
		}},
		{"f32_1d_noisy_acc1e-3", func(t *testing.T, n string) {
			checkGolden[float32](t, n, "f32_1d_noisy", []uint64{601}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3})
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, c.name) })
	}
}
