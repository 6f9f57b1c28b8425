package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pressio/internal/core"
	"pressio/internal/fsx"
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

	// Overwrite wins; the old version's segment is unlinked.
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

// liveTable renders the live object table (metas and quarantine sets) for
// comparison with the table a reopen folds back.
func liveTable(t *testing.T, s *Store) string {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	table := map[string]manifestObject{}
	for name, o := range s.objects {
		table[name] = manifestObject{Meta: o.meta, Quarantined: slices.Sorted(maps.Keys(o.quarantined))}
	}
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reopenMatches closes s, reopens its directory and fails unless the
// reopened table is want.
func reopenMatches(t *testing.T, s *Store, want string) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(s.Dir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := liveTable(t, r); got != want {
		t.Fatalf("reopened table differs from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestReplayRebuildsLiveTable is the differential test of the one record
// transition: whatever two concurrent mutators of the same names,
// checkpoints and a scrub leave in the live object table is exactly what a
// reopen folds back from the manifest and the journal.
func TestReplayRebuildsLiveTable(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := int64(0); g < 2; g++ {
				wg.Add(1)
				go func(g int64, rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						name := fmt.Sprintf("obj-%d", rng.Intn(6))
						switch r := rng.Intn(10); {
						case r < 6:
							if _, err := s.Put(name, testData(8+rng.Intn(40)), PutOptions{Filter: "flate", ChunkRows: 4}); err != nil {
								t.Error(err)
							}
						case r < 9:
							if err := s.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
								t.Error(err)
							}
						default:
							if err := s.Checkpoint(); err != nil {
								t.Error(err)
							}
						}
					}
				}(g, rand.New(rand.NewSource(seed*10+g)))
			}
			wg.Wait()
			mustPut(t, s, "scrubbed", testData(24), PutOptions{Filter: "flate", ChunkRows: 4})
			live := s.List()
			victim := live[int(seed)%len(live)]
			flipChunkByte(t, s.segmentPath(victim.Segment), 1)
			if rep, err := s.ScrubOnce(); err != nil || rep.Quarantined != 1 {
				t.Fatalf("scrub after flipping %q chunk 1: %+v %v", victim.Name, rep, err)
			}
			mustPut(t, s, "after-scrub", testData(8), PutOptions{})
			reopenMatches(t, s, liveTable(t, s))
		})
	}
}

// TestPutDeleteOverlapMatchesReplay issues a delete of a name while a large
// put of that name is between its journal append and its live apply. The
// two may land in either order, but the live table must be the one a reopen
// replays, which applies them in LSN order.
func TestPutDeleteOverlapMatchesReplay(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "x", testData(8), PutOptions{})
	fi, err := os.Stat(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	big := testData(2 << 20) // 16 MiB: a long window between append and apply
	done := make(chan error, 1)
	go func() {
		_, err := s.Put("x", big, PutOptions{})
		done <- err
	}()
	// The journal grows once the put holds its LSN.
	for {
		now, err := os.Stat(s.journalPath())
		if err != nil {
			t.Fatal(err)
		}
		if now.Size() > fi.Size() {
			break
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			done <- nil // finished between two looks: the next one sees it
		default:
		}
	}
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	reopenMatches(t, s, liveTable(t, s))
}

// TestReadFollowsReplacedVersion drives a read through its unexported steps
// with a put landing between the lookup and the segment open (span runs
// between the two). The put unlinks the looked-up version's segment; the
// read must return the live version, with that version's info, not
// ErrNotFound. A delete in the same window is a true ErrNotFound.
func TestReadFollowsReplacedVersion(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	po := PutOptions{Filter: "flate", ChunkRows: 8}
	v1 := mustPut(t, s, "x", testData(32), po)
	want := testData(24)
	var v2 ObjectInfo
	var seen []uint64
	d, info, err := s.read("x", func(info ObjectInfo) (uint64, uint64, error) {
		seen = append(seen, info.LSN)
		if len(seen) == 1 {
			v2 = mustPut(t, s, "x", want, po)
			if _, err := os.Stat(s.segmentPath(v1.Segment)); !os.IsNotExist(err) {
				t.Fatalf("replaced segment %s still on disk: %v", v1.Segment, err)
			}
		}
		return 0, info.Dims[0], nil
	})
	if err != nil {
		t.Fatalf("read across a replace: %v", err)
	}
	if !slices.Equal(seen, []uint64{v1.LSN, v2.LSN}) || info.LSN != v2.LSN || info.Segment != v2.Segment {
		t.Fatalf("looked up LSNs %v, read %+v; want %d then %+v", seen, info, v1.LSN, v2)
	}
	if !d.Equal(want) {
		t.Fatal("read across a replace returned other bytes")
	}

	mustPut(t, s, "x", want, po) // a version whose container no read has cached
	_, _, err = s.read("x", func(info ObjectInfo) (uint64, uint64, error) {
		return 0, info.Dims[0], s.Delete("x")
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("read across a delete: %v", err)
	}
}

// TestConcurrentReadsNeverMissLiveObject runs puts, deletes and checkpoints
// over shared names beside reads of names that are never deleted: every
// read must find its object, and the info it returns must describe the bytes
// it read.
func TestConcurrentReadsNeverMissLiveObject(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	po := PutOptions{Filter: "flate", ChunkRows: 4}
	const stable = 3
	for i := 0; i < stable; i++ {
		mustPut(t, s, fmt.Sprintf("stable-%d", i), testData(8), po)
	}
	var writers, readers sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		writers.Add(1)
		go func(rng *rand.Rand) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				var err error
				switch r := rng.Intn(10); {
				case r < 5:
					_, err = s.Put(fmt.Sprintf("stable-%d", rng.Intn(stable)), testData(8*(1+rng.Intn(3))), po)
				case r < 7:
					_, err = s.Put(fmt.Sprintf("churn-%d", rng.Intn(2)), testData(8), po)
				case r < 9:
					if err = s.Delete(fmt.Sprintf("churn-%d", rng.Intn(2))); errors.Is(err, ErrNotFound) {
						err = nil
					}
				default:
					err = s.Checkpoint()
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(rand.New(rand.NewSource(w)))
	}
	stop := make(chan struct{})
	for r := int64(0); r < 2; r++ {
		readers.Add(1)
		go func(rng *rand.Rand) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("stable-%d", rng.Intn(stable))
				var got []byte
				var info ObjectInfo
				var err error
				switch rng.Intn(3) {
				case 0:
					var d *core.Data
					if d, info, err = s.Get(name); err == nil {
						got = d.Bytes()
					}
				case 1:
					var d *core.Data
					if d, info, err = s.GetRows(name, 0, 4); err == nil && len(d.Bytes()) != 32 {
						err = fmt.Errorf("4 rows read as %d bytes", len(d.Bytes()))
					}
				default:
					_, info, err = s.GetRange(name, 8, 16)
				}
				if err == nil && got != nil && !bytes.Equal(got, testData(int(info.Dims[0])).Bytes()) {
					err = fmt.Errorf("read %d bytes, info of %d rows", len(got), info.Dims[0])
				}
				if err != nil {
					t.Errorf("read of live %q: %v", name, err)
					return
				}
			}
		}(rand.New(rand.NewSource(10 + r)))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestPutJournalsMetadataOnly: a put's payload goes to its segment only. The
// journal grows by the record's meta, under 1 KiB per put of a 1 MiB,
// four-chunk object (the benchmark's PUT shape, unfiltered).
func TestPutJournalsMetadataOnly(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vals := make([]float32, 16*128*128)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)))
	}
	const puts = 4
	for i := 0; i < puts; i++ {
		info := mustPut(t, s, fmt.Sprintf("obj-%d", i), core.FromFloat32s(vals, 16, 128, 128), PutOptions{ChunkRows: 4})
		if info.StoredBytes != 1<<20 {
			t.Fatalf("stored %d bytes, want 1 MiB", info.StoredBytes)
		}
	}
	fi, err := os.Stat(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if per := fi.Size() / puts; per > 1<<10 {
		t.Fatalf("journal grows by %d bytes per 1 MiB put, want at most 1 KiB", per)
	}
}

// TestOpenRemovesOrphans: a put that fails before its commit removes its own
// segment, and a segment no record references (crash debris) is removed by
// Open, which numbers new segments above it.
func TestOpenRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	keep := mustPut(t, s, "keep", testData(16), PutOptions{})
	if err := fsx.ArmFS(fsx.FSFault{Point: PointJournalWrite, Mode: fsx.FSModeFail}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Put("lost", testData(16), PutOptions{})
	fsx.DisarmFS()
	if !errors.Is(err, fsx.ErrFSCrash) {
		t.Fatalf("put with %s armed: %v", PointJournalWrite, err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, objectsDir)); err != nil || len(ents) != 1 || ents[0].Name() != keep.Segment {
		t.Fatalf("objects/ after a failed put: %v %v", ents, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, objectsDir, keep.Segment))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, objectsDir, segmentName(9))
	if err := os.WriteFile(orphan, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Recovery().OrphanSegments; n != 1 {
		t.Fatalf("recovery counted %d orphans, want 1", n)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan segment survived Open: %v", err)
	}
	if next := mustPut(t, r, "next", testData(16), PutOptions{}); next.Segment != segmentName(10) {
		t.Fatalf("next segment %s, want %s", next.Segment, segmentName(10))
	}
}

// TestRejectedManifestKeepsItsSegments: when the manifest is rejected, the
// segments only it referenced are orphans the lost checkpoint may have
// needed, so Open moves them to quarantine/ instead of removing them.
func TestRejectedManifestKeepsItsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	kept := mustPut(t, s, "kept", testData(16), PutOptions{})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if !rec.ManifestQuarantined || rec.OrphanSegments != 1 || !slices.Equal(rec.QuarantinedSegments, []string{kept.Segment}) {
		t.Fatalf("recovery after a rejected manifest: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, kept.Segment+".corrupt")); err != nil {
		t.Fatalf("the lost checkpoint's segment is not in quarantine/: %v", err)
	}
}

// TestPutThroughOptRoundTrips: the opt meta-compressor is a chunk filter like
// any other; each chunk is tuned to the target ratio and reads back through
// the candidate that produced it, before and after a reopen.
func TestPutThroughOptRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 64*64)
	for i := range vals {
		vals[i] = math.Sin(float64(i%64)/9) * math.Cos(float64(i/64)/7)
	}
	d := core.FromFloat64s(vals, 64, 64)
	mustPut(t, s, "tuned", d, PutOptions{Filter: "opt", FilterOptions: map[string]float64{"opt:target_ratio": 6}, ChunkRows: 16})
	check := func(s *Store) {
		t.Helper()
		got, info, err := s.Get("tuned")
		if err != nil {
			t.Fatal(err)
		}
		if info.Filter != "opt" || got.DType() != d.DType() || got.Len() != d.Len() {
			t.Fatalf("read back %v as %+v", got, info)
		}
		for i, v := range got.Float64s() {
			if math.Abs(v-vals[i]) > 0.05 {
				t.Fatalf("element %d: %v, stored %v", i, v, vals[i])
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}
