package tthresh

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pressio/internal/core"
)

func goldenFile(t testing.TB, name string) []byte {
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
// the encoder of commit 167347b (before the header parser moved into core)
// produced for <name>.in under p, and <name>.out what its decoder returned. Today's
// decoder must reproduce .out bit-exact and today's encoder the same stream.
func checkGolden[T core.Float](t *testing.T, name string, dims []uint64, p Params) {
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
	raw := goldenFile(t, name+".in")
	in := make([]T, len(got))
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, in); err != nil {
		t.Fatal(err)
	}
	re, err := CompressSlice(in, dims, p)
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
		{"f32_3d_eps1e-2", func(t *testing.T, n string) {
			checkGolden[float32](t, n, []uint64{6, 8, 10}, Params{Eps: 1e-2})
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, c.name) })
	}
}
