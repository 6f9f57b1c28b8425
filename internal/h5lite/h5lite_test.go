package h5lite

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/lossless" // register filter compressors
	_ "pressio/internal/zfp"
)

func TestMultiDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.h5l")
	f := Create(path)
	a := core.FromFloat64s([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := core.FromInt32s([]int32{7, 8, 9}, 3)
	if err := f.WriteDataset("a", a, DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteDataset("b", b, DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	names := g.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	gotA, err := g.ReadDataset("a")
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("a mismatch: %v", err)
	}
	gotB, err := g.ReadDataset("b")
	if err != nil || !gotB.Equal(b) {
		t.Fatalf("b mismatch: %v", err)
	}
	if _, err := g.ReadDataset("missing"); err == nil {
		t.Fatal("expected ErrNotFound")
	}
}

func TestChunkingExactCoverage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.h5l")
	f := Create(path)
	vals := make([]float32, 10*4)
	for i := range vals {
		vals[i] = float32(i)
	}
	d := core.FromFloat32s(vals, 10, 4)
	// 3 rows per chunk over 10 rows: chunks of 3,3,3,1.
	if err := f.WriteDataset("d", d, DatasetOptions{ChunkRows: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadDataset("d")
	if err != nil || !got.Equal(d) {
		t.Fatalf("chunked round trip: %v", err)
	}
}

func TestLosslessFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.h5l")
	f := Create(path)
	vals := make([]float64, 1000) // zeros compress very well
	d := core.FromFloat64s(vals, 10, 100)
	if err := f.WriteDataset("z", d, DatasetOptions{Filter: "gzip", ChunkRows: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 2000 {
		t.Fatalf("gzip filter did not shrink zeros: %d bytes", fi.Size())
	}
	g, _ := Open(path)
	got, err := g.ReadDataset("z")
	if err != nil || !got.Equal(d) {
		t.Fatalf("filtered round trip: %v", err)
	}
}

func TestLossyFilterRespectsBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.h5l")
	f := Create(path)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 16*16)
	for i := range vals {
		vals[i] = float32(math.Cos(float64(i)/7) + 0.01*rng.NormFloat64())
	}
	d := core.FromFloat32s(vals, 16, 16)
	err := f.WriteDataset("p", d, DatasetOptions{
		Filter:        "zfp",
		ChunkRows:     4,
		FilterOptions: map[string]float64{core.KeyAbs: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	g, _ := Open(path)
	got, err := g.ReadDataset("p")
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(float64(got.Float32s()[i]-vals[i])) > 1e-3 {
			t.Fatalf("elem %d exceeds filter bound", i)
		}
	}
}

// TestUndeclaredFilterKey: a key in the filter's own prefix that the filter
// does not declare is refused on write, but a container that recorded one
// (written before such keys were refused, when the filter ignored it) still
// reads back.
func TestUndeclaredFilterKey(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	d := core.FromFloat64s(vals, 64)
	typo := map[string]float64{"flate:lvl": 9}
	f := Create(filepath.Join(t.TempDir(), "t.h5l"))
	if err := f.WriteDataset("data", d, DatasetOptions{Filter: "flate", FilterOptions: typo}); !errors.Is(err, core.ErrInvalidOption) {
		t.Fatalf("write with flate:lvl: %v, want ErrInvalidOption", err)
	}
	if err := f.WriteDataset("data", d, DatasetOptions{Filter: "flate", ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	chunks, err := f.RawChunks("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteRawDataset("old", "float64", []uint64{64}, "flate", typo, chunks); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadDataset("old"); err != nil || !got.Equal(d) {
		t.Fatalf("reading a recorded undeclared key: %v", err)
	}
}

func TestUnknownFilterRejected(t *testing.T) {
	f := Create(filepath.Join(t.TempDir(), "u.h5l"))
	d := core.FromFloat64s([]float64{1}, 1)
	if err := f.WriteDataset("x", d, DatasetOptions{Filter: "no_such_compressor"}); err == nil {
		t.Fatal("expected unknown plugin error")
	}
}

func TestCorruptContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.h5l")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("expected format error")
	}
	if err := os.WriteFile(path, append([]byte("H5LITE1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("expected truncated header error")
	}
}

func TestRewritePreservesOtherDatasets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.h5l")
	f := Create(path)
	a := core.FromFloat64s([]float64{1, 2}, 2)
	if err := f.WriteDataset("a", a, DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := core.FromFloat64s([]float64{3, 4, 5}, 3)
	if err := g.WriteDataset("b", b, DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(); err != nil {
		t.Fatal(err)
	}
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := h.ReadDataset("a")
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("a lost on rewrite: %v", err)
	}
	gotB, err := h.ReadDataset("b")
	if err != nil || !gotB.Equal(b) {
		t.Fatalf("b missing: %v", err)
	}
}

func TestReadRowsPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.h5l")
	f := Create(path)
	vals := make([]float32, 20*8)
	for i := range vals {
		vals[i] = float32(i)
	}
	d := core.FromFloat32s(vals, 20, 8)
	if err := f.WriteDataset("d", d, DatasetOptions{ChunkRows: 4, Filter: "gzip"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 5..12 span chunks 1, 2 and 3 partially.
	got, err := g.ReadRows("d", 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims()[0] != 8 || got.Dims()[1] != 8 {
		t.Fatalf("dims %v", got.Dims())
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			want := float32((5+r)*8 + c)
			if got.Float32s()[r*8+c] != want {
				t.Fatalf("row %d col %d: got %v want %v", r, c, got.Float32s()[r*8+c], want)
			}
		}
	}
	// Full-range read equals ReadDataset.
	all, err := g.ReadRows("d", 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Equal(d) {
		t.Fatal("full-range ReadRows mismatch")
	}
	// Out-of-range requests fail.
	if _, err := g.ReadRows("d", 15, 10); err == nil {
		t.Fatal("out of range should fail")
	}
	if _, err := g.ReadRows("d", 0, 0); err == nil {
		t.Fatal("zero count should fail")
	}
	if _, err := g.ReadRows("missing", 0, 1); err == nil {
		t.Fatal("missing dataset should fail")
	}
}

// TestReadRowsOutOfRangeIsTyped: start+count used to be compared unguarded, so
// a start near 2^64 wrapped past the check and came back as "bad format"; an
// out-of-extent read is the caller's mistake and says so.
func TestReadRowsOutOfRangeIsTyped(t *testing.T) {
	f := Create(filepath.Join(t.TempDir(), "r.h5l"))
	if err := f.WriteDataset("data", core.FromFloat32s(make([]float32, 16*2), 16, 2), DatasetOptions{ChunkRows: 4}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]uint64{{math.MaxUint64, 2}, {math.MaxUint64 - 1, 2}, {2, math.MaxUint64}, {16, 1}, {15, 2}, {0, 17}, {100, 4}, {3, 0}} {
		if _, err := f.ReadRows("data", c[0], c[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("ReadRows(%d, %d): err = %v, want ErrOutOfRange", c[0], c[1], err)
		}
	}
	if got, err := f.ReadRows("data", 15, 1); err != nil || got.Dims()[0] != 1 {
		t.Fatalf("last row: %v", err)
	}
}

// TestGoldenContainer pins the container format: testdata/golden/
// four_chunks.h5l is what Save wrote at commit 729c0b6 for a 16x4x8 float32
// dataset in four zfp-filtered chunks, four_chunks.out what ReadDataset then
// returned. Today's reader must return the same values, and re-saving the
// same stored chunks must reproduce the file byte for byte.
func TestGoldenContainer(t *testing.T) {
	golden := filepath.Join("testdata", "golden", "four_chunks.h5l")
	f, err := Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.ReadDataset("data")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "four_chunks.out"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Bytes(), want) {
		t.Fatal("decoded values differ from the pinned output")
	}
	meta, err := f.Meta("data")
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := f.RawChunks("data")
	if err != nil || len(chunks) != 4 {
		t.Fatalf("%d chunks, %v", len(chunks), err)
	}
	path := filepath.Join(t.TempDir(), "re.h5l")
	g := Create(path)
	if err := g.WriteRawDataset("data", meta.DType, meta.Dims, meta.Filter, meta.Options, chunks); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Fatalf("re-saved container differs from the pinned one (%d vs %d bytes)", len(got), len(pinned))
	}
}
