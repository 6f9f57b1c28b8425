package fpzip

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// checkGolden pins both format versions for one input and precision.
// <in>.in is the field; <name>.fpz1.stream is what the encoder of commit
// 46ffddb (the last to write FPZ1) produced for it and <name>.out what that
// decoder returned (the input itself when lossless); <name>.fpz2.stream is
// the first FPZ2 encoder's output. Every version must decode to the pinned
// values, and today's encoder must write the newest one byte for byte.
func checkGolden[T core.Float](t *testing.T, in, name string, dims []uint64, prec uint) {
	want := goldenFile(t, in+".in")
	if prec != 0 {
		want = goldenFile(t, name+".out")
	}
	for _, version := range []string{magicV1, magic} {
		stream := goldenFile(t, name+"."+strings.ToLower(version)+".stream")
		if !bytes.HasPrefix(stream, []byte(version)) {
			t.Fatalf("%s golden does not open with its magic", version)
		}
		got, gotDims, err := DecompressSlice[T](stream)
		if err != nil {
			t.Fatalf("%s decode: %v", version, err)
		}
		if !slices.Equal(gotDims, dims) {
			t.Fatalf("%s dims %v, want %v", version, gotDims, dims)
		}
		var b bytes.Buffer
		if err := binary.Write(&b, binary.LittleEndian, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("%s: decoded values differ from the pinned output", version)
		}
	}
	vals := make([]T, len(want)/binary.Size(*new(T)))
	if err := binary.Read(bytes.NewReader(goldenFile(t, in+".in")), binary.LittleEndian, vals); err != nil {
		t.Fatal(err)
	}
	re, err := CompressSlice(vals, dims, Params{Precision: prec})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(re, goldenFile(t, name+".fpz2.stream")) {
		t.Fatal("re-encoded stream differs from the pinned FPZ2 one: a format change needs a new magic")
	}
}

func TestGoldenStreams(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T, string)
	}{
		{"f32_lossless", func(t *testing.T, n string) { checkGolden[float32](t, "f32", n, []uint64{16, 24}, 0) }},
		{"f32_prec16", func(t *testing.T, n string) { checkGolden[float32](t, "f32", n, []uint64{16, 24}, 16) }},
		// The float64 field has residual classes with more than 32 raw bits.
		{"f64_lossless", func(t *testing.T, n string) { checkGolden[float64](t, "f64", n, []uint64{5, 6, 8}, 0) }},
		{"f64_prec16", func(t *testing.T, n string) { checkGolden[float64](t, "f64", n, []uint64{5, 6, 8}, 16) }},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, c.name) })
	}
}
