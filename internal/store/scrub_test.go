package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pressio/internal/h5lite"
)

// flipChunkByte corrupts one byte of the given chunk's payload inside the
// segment file, bypassing the store (this is bit rot, not a crash).
func flipChunkByte(t *testing.T, segPath string, chunk int) {
	t.Helper()
	f, err := h5lite.Open(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.RawChunks(datasetName)
	if err != nil {
		t.Fatal(err)
	}
	if chunk >= len(raw) {
		t.Fatalf("segment has %d chunks, wanted %d", len(raw), chunk)
	}
	disk, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(disk, raw[chunk].Payload)
	if off < 0 {
		t.Fatal("chunk payload not found in segment file")
	}
	disk[off+len(raw[chunk].Payload)/2] ^= 0x20
	if err := os.WriteFile(segPath, disk, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScrubQuarantinesExactlyTheCorruptChunks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim := mustPut(t, s, "victim", testData(64), PutOptions{Filter: "flate", ChunkRows: 10})
	intactData := testData(32)
	mustPut(t, s, "intact", intactData, PutOptions{Filter: "flate", ChunkRows: 8})

	// Flip a byte in chunks 2 and 5 of the victim (7 chunks total).
	flipChunkByte(t, s.segmentPath(victim.Segment), 2)
	flipChunkByte(t, s.segmentPath(victim.Segment), 5)

	rep, err := s.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 2 || rep.Quarantined != 2 {
		t.Fatalf("scrub found %+v, want exactly chunks 2 and 5", rep.Corrupt)
	}
	got := map[int]bool{}
	for _, c := range rep.Corrupt {
		if c.Object != "victim" {
			t.Fatalf("scrub condemned wrong object %q", c.Object)
		}
		got[c.Chunk] = true
	}
	if !got[2] || !got[5] {
		t.Fatalf("scrub condemned chunks %v, want {2, 5}", got)
	}

	// The intact object is untouched and fully readable.
	d, info, err := s.Get("intact")
	if err != nil || !d.Equal(intactData) {
		t.Fatalf("intact object unreadable after scrub: %v", err)
	}
	if len(info.QuarantinedChunks) != 0 {
		t.Fatalf("intact object quarantined: %v", info.QuarantinedChunks)
	}

	// Full read of the victim fails typed; non-overlapping range reads work.
	if _, _, err := s.Get("victim"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("full read of quarantined object: %v", err)
	}
	if _, _, err := s.GetRows("victim", 0, 10); err != nil {
		t.Fatalf("read of intact chunk 0 blocked: %v", err)
	}
	if _, _, err := s.GetRows("victim", 20, 10); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("read overlapping corrupt chunk 2: %v", err)
	}

	// The evidence copy landed in quarantine/.
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no evidence in quarantine/: %v", err)
	}

	// The verdict survives a reopen (it went through the journal).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, info, err = r.lookup("victim")
	if err != nil || len(info.QuarantinedChunks) != 2 {
		t.Fatalf("quarantine state lost across reopen: %+v %v", info, err)
	}
	d, _, err = r.Get("intact")
	if err != nil || !d.Equal(intactData) {
		t.Fatalf("intact object lost across reopen: %v", err)
	}

	// A second scrub pass is stable: already-quarantined chunks are skipped,
	// nothing new is condemned.
	rep2, err := r.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Corrupt) != 0 {
		t.Fatalf("second pass re-condemned: %+v", rep2.Corrupt)
	}
}

// TestScrubSurvivesUnusableQuarantineDir: with quarantine/ replaced by a
// regular file no evidence name can be picked. The evidence copy is best
// effort behind the journaled verdict, so the pass must still return, with
// the corrupt chunk quarantined.
func TestScrubSurvivesUnusableQuarantineDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim := mustPut(t, s, "victim", testData(32), PutOptions{Filter: "flate", ChunkRows: 8})
	if err := os.RemoveAll(filepath.Join(dir, quarantineDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, quarantineDir), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	flipChunkByte(t, s.segmentPath(victim.Segment), 1)

	type result struct {
		rep ScrubReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := s.ScrubOnce()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.rep.Quarantined != 1 {
			t.Fatalf("scrub: %+v %v", r.rep, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ScrubOnce did not return with quarantine/ unusable")
	}
	_, info, err := s.lookup("victim")
	if err != nil || fmt.Sprint(info.QuarantinedChunks) != "[1]" {
		t.Fatalf("victim after scrub: %+v %v", info, err)
	}
}

// TestStaleScrubVerdictSparesNewVersion condemns a chunk of a version that
// was overwritten after the scrub read it: the quarantine record names the
// object only, so it must not be written, or it would mark the new version,
// live and on replay.
func TestStaleScrubVerdictSparesNewVersion(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	po := PutOptions{Filter: "flate", ChunkRows: 8}
	mustPut(t, s, "x", testData(32), po)
	s.mu.RLock()
	v0 := s.objects["x"].meta
	s.mu.RUnlock()
	mustPut(t, s, "x", testData(32), po)
	if n, err := s.quarantineChunks(v0, []int{1}); err != nil || n != 0 {
		t.Fatalf("stale verdict: quarantined %d chunks, %v", n, err)
	}
	if info, err := s.Stat("x"); err != nil || len(info.QuarantinedChunks) != 0 {
		t.Fatalf("new version after a stale verdict: %+v %v", info, err)
	}
	reopenMatches(t, s, liveTable(t, s))
}

// TestScrubReportsOnlyLiveVersions replaces or deletes versions after a
// pass's snapshot, before or after their verification. A verdict taken
// before the replace reads clean, one taken after it reads an unlinked
// segment, and both are stale. The report must cover the live versions only,
// and nothing may be quarantined.
func TestScrubReportsOnlyLiveVersions(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	po := PutOptions{Filter: "flate", ChunkRows: 8}
	for _, name := range []string{"replaced", "deleted", "kept"} {
		mustPut(t, s, name, testData(32), po)
	}
	rotted := mustPut(t, s, "rotted", testData(32), po)
	flipChunkByte(t, s.segmentPath(rotted.Segment), 1)
	snap := map[string]*object{}
	s.mu.RLock()
	for name, o := range s.objects {
		snap[name] = &object{meta: o.meta, quarantined: maps.Clone(o.quarantined)}
	}
	s.mu.RUnlock()

	// The verdict on "replaced" is taken before the replace, so it reads
	// clean and only the liveness check can drop it; the others are taken
	// after the replace and the delete have unlinked the old segments.
	verdicts := verify(s.dir, map[string]*object{"replaced": snap["replaced"]})
	delete(snap, "replaced")
	mustPut(t, s, "replaced", testData(24), po)
	if err := s.Delete("deleted"); err != nil {
		t.Fatal(err)
	}
	verdicts = append(verdicts, verify(s.dir, snap)...)
	mustPut(t, s, "rotted", testData(32), po)
	rep, err := s.scrub(verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 1 || rep.ChunksChecked != 4 || rep.Quarantined != 0 || len(rep.Unreadable) != 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub across replaced and deleted versions: %+v", rep)
	}
	for _, info := range s.List() {
		if len(info.QuarantinedChunks) != 0 {
			t.Fatalf("%q quarantined by a stale verdict: %v", info.Name, info.QuarantinedChunks)
		}
	}
	reopenMatches(t, s, liveTable(t, s))
}

func TestScrubberRunsInBackground(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "x", testData(16), PutOptions{Filter: "flate", ChunkRows: 4})

	sc := NewScrubber(s, 5*time.Millisecond, 42)
	sc.Start()
	defer sc.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep, ok := sc.LastReport(); ok {
			if rep.Objects != 1 || len(rep.Corrupt) != 0 {
				t.Fatalf("background pass report: %+v", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber never completed a pass")
		}
		time.Sleep(time.Millisecond)
	}
	sc.Stop()
	// Stop is idempotent and a disabled scrubber's Start is a no-op.
	sc.Stop()
	NewScrubber(s, 0, 0).Start()
}

// TestScrubJitterGolden pins the jitter stream for one seed, so a fleet's
// scrub phases do not move when the PRNG step is touched.
func TestScrubJitterGolden(t *testing.T) {
	state := uint64(42)
	want := []time.Duration{1120782439, 829955196, 889300565, 922095358, 769015084, 1184114038, 859202596, 1150315938}
	for i, w := range want {
		if d := jitter(time.Second, &state); d != w {
			t.Errorf("jitter #%d = %d, want %d", i, d, w)
		}
	}
}
