package mgard

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

// golden is one pinned stream: testdata/golden/<name>.stream is what the
// encoder of commit 46ffddb (f32_2d_abs1e-3) or 6fcc29b (the others)
// produced for <name>.in under p at DEFLATE level 6, and <name>.out what its
// decoder returned. attempts pins what the golden exercises: how many bins
// the verify loop tried.
type golden struct {
	name     string
	wide     bool
	dims     []uint64
	p        Params
	attempts int
}

var goldens = []golden{
	{"f32_2d_abs1e-3", false, []uint64{17, 25}, Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 6}, 2},
	{"f64_3d_abs1e-2", true, []uint64{33, 9, 9}, Params{Mode: core.BoundAbs, Bound: 1e-2, LosslessLevel: 6}, 2},
	{"f32_1d_noisy_abs1e-3", false, []uint64{300}, Params{Mode: core.BoundAbs, Bound: 1e-3, LosslessLevel: 6}, 3},
	{"f32_4d_rel1e-3", false, []uint64{3, 5, 4, 6}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3, LosslessLevel: 6}, 1},
}

// goldenIn reads <name>.in.
func goldenIn[T core.Float](t testing.TB, name string) []T {
	raw := goldenFile(t, name+".in")
	in := make([]T, len(raw)/core.FloatDType[T]().Size())
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, in); err != nil {
		t.Fatal(err)
	}
	return in
}

// checkGolden requires today's decoder to reproduce g's .out bit-exact and
// today's encoder its stream.
func checkGolden[T core.Float](t *testing.T, g golden) {
	stream := goldenFile(t, g.name+".stream")
	got, gotDims, err := DecompressSlice[T](stream)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !slices.Equal(gotDims, g.dims) {
		t.Fatalf("dims %v, want %v", gotDims, g.dims)
	}
	if !bytes.Equal(leBytes(t, got), goldenFile(t, g.name+".out")) {
		t.Fatal("decoded values differ from the pinned output")
	}
	in := goldenIn[T](t, g.name)
	if got := attemptsOf(t, stream, boundOf(in, g.p), len(g.dims)); got != g.attempts {
		t.Fatalf("verify loop took %d attempts, want %d", got, g.attempts)
	}
	re, err := CompressSlice(in, g.dims, g.p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(re, stream) {
		t.Fatalf("re-encoded stream differs from the pinned one (%d vs %d bytes): a format change needs a new magic", len(re), len(stream))
	}
	// Level 0 writes level 1 (flate.BestSpeed): the same header and values,
	// only the DEFLATE body differs.
	p := g.p
	p.LosslessLevel = 0
	def, err := CompressSlice(in, g.dims, p)
	if err != nil {
		t.Fatal(err)
	}
	p.LosslessLevel = 1
	if fast, err := CompressSlice(in, g.dims, p); err != nil || !bytes.Equal(def, fast) {
		t.Fatalf("level 0 does not write the level-1 stream (%v)", err)
	}
	_, pos, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def[:pos], stream[:pos]) {
		t.Fatal("level-0 header differs from the pinned one")
	}
	if dec, _, err := DecompressSlice[T](def); err != nil || !bytes.Equal(leBytes(t, dec), goldenFile(t, g.name+".out")) {
		t.Fatalf("level-0 stream does not decode to the pinned output (%v)", err)
	}
}

func TestGoldenStreams(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			if g.wide {
				checkGolden[float64](t, g)
			} else {
				checkGolden[float32](t, g)
			}
		})
	}
}
