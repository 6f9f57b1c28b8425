package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pressio/internal/core"
)

func testData(n int) *core.Data {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%97) * 0.5
	}
	return core.FromFloat64s(vals, uint64(n))
}

func mustPut(t *testing.T, s *Store, name string, d *core.Data, po PutOptions) ObjectInfo {
	t.Helper()
	info, err := s.Put(name, d, po)
	if err != nil {
		t.Fatalf("put %q: %v", name, err)
	}
	return info
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := testData(100)
	info := mustPut(t, s, "sim/run1", d, PutOptions{Filter: "flate", ChunkRows: 16})
	if info.Chunks != 7 {
		t.Fatalf("expected 7 chunks, got %d", info.Chunks)
	}
	got, gotInfo, err := s.Get("sim/run1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatal("round trip mismatch")
	}
	if gotInfo.LSN != info.LSN || gotInfo.Segment != info.Segment {
		t.Fatalf("info mismatch: %+v vs %+v", gotInfo, info)
	}

	// Overwrite wins; the old version stays on disk until checkpoint GC.
	d2 := testData(50)
	mustPut(t, s, "sim/run1", d2, PutOptions{})
	got, _, err = s.Get("sim/run1")
	if err != nil || !got.Equal(d2) {
		t.Fatalf("overwrite lost: %v", err)
	}

	if _, _, err := s.Get("no/such"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

func TestGetRowsAndRangeTouchOnlyOverlappingChunks(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := testData(64)
	mustPut(t, s, "x", d, PutOptions{Filter: "flate", ChunkRows: 10})

	rows, _, err := s.GetRows("x", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Float64s()[25:35]
	got := rows.Float64s()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row slab mismatch at %d", i)
		}
	}

	// Byte range: rows are 8 bytes wide, ask for an unaligned span.
	raw, _, err := s.GetRange("x", 13, 40)
	if err != nil {
		t.Fatal(err)
	}
	full := d.Bytes()
	if string(raw) != string(full[13:53]) {
		t.Fatal("byte range mismatch")
	}
	// Outside the extent, wrapping sums included: the caller's mistake, typed.
	for _, c := range [][2]int64{{500, 40}, {0, 99999999}, {math.MaxInt64, 1}, {1, math.MaxInt64}, {512, 1}, {-1, 4}, {8, 0}} {
		if _, _, err := s.GetRange("x", c[0], c[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("GetRange(%d, %d): err = %v, want ErrOutOfRange", c[0], c[1], err)
		}
	}
	for _, c := range [][2]uint64{{100, 4}, {math.MaxUint64, 2}, {63, 2}, {0, 65}} {
		if _, _, err := s.GetRows("x", c[0], c[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("GetRows(%d, %d): err = %v, want ErrOutOfRange", c[0], c[1], err)
		}
	}
}

func TestDeleteAndList(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "b", testData(8), PutOptions{})
	mustPut(t, s, "a", testData(8), PutOptions{})

	names := []string{}
	for _, info := range s.List() {
		names = append(names, info.Name)
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("list order: %v", names)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if got := len(s.List()); got != 1 {
		t.Fatalf("after delete, %d objects", got)
	}
}

func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := testData(40)
	mustPut(t, s, "kept", d, PutOptions{Filter: "flate", ChunkRows: 8})
	mustPut(t, s, "gone", testData(10), PutOptions{})
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Ready() {
		t.Fatal("recovered store not ready")
	}
	st := r.Recovery()
	if st.Replayed != 3 || st.Skipped != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	got, _, err := r.Get("kept")
	if err != nil || !got.Equal(d) {
		t.Fatalf("replayed object lost: %v", err)
	}
	if _, _, err := r.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone not replayed: %v", err)
	}
}

func TestCheckpointTruncatesJournalAndCollectsGarbage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := testData(32)
	mustPut(t, s, "x", d, PutOptions{})
	old := mustPut(t, s, "x", d, PutOptions{}) // replaced version becomes garbage
	neu := mustPut(t, s, "x", d, PutOptions{})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated: %v size=%d", err, fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, objectsDir, old.Segment)); !os.IsNotExist(err) {
		t.Fatalf("replaced segment not collected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, objectsDir, neu.Segment)); err != nil {
		t.Fatalf("live segment collected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state comes entirely from the manifest, nothing to replay.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Recovery(); st.Replayed != 0 || st.ManifestObjects != 1 {
		t.Fatalf("post-checkpoint recovery stats: %+v", st)
	}
	got, info, err := r.Get("x")
	if err != nil || !got.Equal(d) {
		t.Fatalf("checkpointed object lost: %v", err)
	}
	if info.LSN != neu.LSN {
		t.Fatalf("wrong version after checkpoint: lsn %d vs %d", info.LSN, neu.LSN)
	}

	// LSNs keep increasing across checkpoints: a new put must outrank the
	// checkpointed version.
	later := mustPut(t, r, "x", d, PutOptions{})
	if later.LSN <= neu.LSN {
		t.Fatalf("LSN regressed across checkpoint: %d then %d", neu.LSN, later.LSN)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: 1}) // every mutation trips it
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "x", testData(16), PutOptions{})
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("auto checkpoint did not run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatal("manifest missing after auto checkpoint")
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: 4 << 10}) // checkpoints mid-storm
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", w)
			d := testData(64 + w)
			for i := 0; i < 10; i++ {
				if _, err := s.Put(name, d, PutOptions{Filter: "flate", ChunkRows: 16}); err != nil {
					t.Errorf("worker %d put: %v", w, err)
					return
				}
				if got, _, err := s.Get(name); err != nil || !got.Equal(d) {
					t.Errorf("worker %d get: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.List()); got != workers {
		t.Fatalf("after storm, %d objects want %d", got, workers)
	}
	for w := 0; w < workers; w++ {
		d := testData(64 + w)
		got, _, err := r.Get(fmt.Sprintf("obj-%d", w))
		if err != nil || !got.Equal(d) {
			t.Fatalf("object obj-%d lost after reopen: %v", w, err)
		}
	}
}

func TestValidateNameRejectsGarbage(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, bad := range []string{"", ".", "..", "a\x00b", "ctl\x1fchar", string(make([]byte, maxNameLen+1))} {
		if _, err := s.Put(bad, testData(4), PutOptions{}); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	if _, err := s.Put("ok/nested.name-v2", testData(4), PutOptions{}); err != nil {
		t.Fatalf("reasonable name rejected: %v", err)
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "x", testData(4), PutOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("y", testData(4), PutOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := s.Get("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close not idempotent")
	}
}

// TestReadPathDifferential: whatever Get returns for an object, GetRows and
// GetRange must return exactly the matching slice of it — over random
// shapes, chunkings, and with the filter off, lossless and lossy (so the
// comparison is against Get, not against what was put).
func TestReadPathDifferential(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(22))
	filters := []PutOptions{
		{},
		{Filter: "flate"},
		{Filter: "zfp", FilterOptions: map[string]float64{core.KeyAbs: 1e-2}},
	}
	for trial := 0; trial < 60; trial++ {
		dims := make([]uint64, 1+rng.Intn(3))
		n := 1
		for i := range dims {
			dims[i] = uint64(1 + rng.Intn(12))
			n *= int(dims[i])
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(10*math.Sin(float64(i)/5) + rng.NormFloat64())
		}
		po := filters[trial%len(filters)]
		po.ChunkRows = uint64(rng.Intn(int(dims[0]) + 3)) // 0 and past-the-end included
		name := fmt.Sprintf("obj%d", trial)
		mustPut(t, s, name, core.FromFloat32s(vals, dims...), po)
		what := fmt.Sprintf("%s dims %v chunk_rows %d filter %q", name, dims, po.ChunkRows, po.Filter)

		full, _, err := s.Get(name)
		if err != nil {
			t.Fatalf("%s: Get: %v", what, err)
		}
		rowBytes := uint64(len(full.Bytes())) / dims[0]
		for k := 0; k < 8; k++ {
			start := uint64(rng.Intn(int(dims[0])))
			count := 1 + uint64(rng.Intn(int(dims[0]-start)))
			rows, _, err := s.GetRows(name, start, count)
			if err != nil {
				t.Fatalf("%s: GetRows(%d, %d): %v", what, start, count, err)
			}
			want := full.Bytes()[start*rowBytes : (start+count)*rowBytes]
			if !bytes.Equal(rows.Bytes(), want) || rows.Dims()[0] != count || !slices.Equal(rows.Dims()[1:], dims[1:]) {
				t.Fatalf("%s: GetRows(%d, %d) differs from the slice of Get (dims %v)", what, start, count, rows.Dims())
			}
			off := rng.Intn(len(full.Bytes()))
			length := 1 + rng.Intn(len(full.Bytes())-off)
			got, _, err := s.GetRange(name, int64(off), int64(length))
			if err != nil {
				t.Fatalf("%s: GetRange(%d, %d): %v", what, off, length, err)
			}
			if !bytes.Equal(got, full.Bytes()[off:off+length]) {
				t.Fatalf("%s: GetRange(%d, %d) differs from the slice of Get", what, off, length)
			}
		}
	}
}
