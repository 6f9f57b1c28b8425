package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "a", testData(40), PutOptions{Filter: "flate", ChunkRows: 8})
	mustPut(t, s, "b", testData(16), PutOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean store reported problems: %v", rep.Problems())
	}
	if rep.Objects != 2 || rep.JournalRecords != 2 || rep.ChunksChecked != 6 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestFsckPredictsDroppedObjects: a checkpointed object whose segment is
// absent or no longer a container has no journal payloads to rebuild from,
// so repair drops it. Check mode must say so in advance: the objects it calls
// unrecoverable are exactly the repair's DroppedObjects, and only a segment
// that was really moved is listed as quarantined.
func TestFsckPredictsDroppedObjects(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	overwritten := mustPut(t, s, "overwritten", testData(32), PutOptions{Filter: "flate", ChunkRows: 8})
	vanished := mustPut(t, s, "vanished", testData(16), PutOptions{ChunkRows: 8})
	fine := testData(24)
	mustPut(t, s, "fine", fine, PutOptions{Filter: "flate", ChunkRows: 6})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, overwritten.Segment), []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, objectsDir, vanished.Segment)); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.MissingSegments) != "[overwritten vanished]" || len(rep.CorruptChunks) != 0 {
		t.Fatalf("check mode: missing %v, corrupt %+v", rep.MissingSegments, rep.CorruptChunks)
	}

	rep, err = Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Repaired.Recovery
	dropped := append([]string(nil), rec.DroppedObjects...)
	sort.Strings(dropped)
	if fmt.Sprint(dropped) != "[overwritten vanished]" {
		t.Fatalf("repair dropped %v", rec.DroppedObjects)
	}
	if fmt.Sprint(rec.QuarantinedSegments) != fmt.Sprint([]string{overwritten.Segment}) {
		t.Fatalf("repair quarantined segments %v, want only %s", rec.QuarantinedSegments, overwritten.Segment)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after repair: %v", rep.Problems())
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if d, _, err := r.Get("fine"); err != nil || !d.Equal(fine) {
		t.Fatalf("intact object damaged by repair: %v", err)
	}
}

func TestFsckDetectsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	hurt := mustPut(t, s, "hurt", testData(64), PutOptions{Filter: "flate", ChunkRows: 10})
	fine := testData(24)
	mustPut(t, s, "fine", fine, PutOptions{Filter: "flate", ChunkRows: 6})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint legacy put: its op-1 record carries the payloads
	// (one 8-byte row per chunk) and its segment was never written, so
	// repair rebuilds it.
	rebuilt := testData(20)
	var rows [][]byte
	for b := rebuilt.Bytes(); len(b) > 0; b = b[8:] {
		rows = append(rows, b[:8])
	}
	legacy, err := encodeRecord(testPutRecord(3, "rebuildme", rows...))
	if err != nil {
		t.Fatal(err)
	}

	// Damage: bit-rot one checkpointed chunk, then append the legacy record,
	// a torn journal tail and a stray temp file.
	flipChunkByte(t, filepath.Join(dir, objectsDir, hurt.Segment), 3)
	jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(append(legacy, "PJL1torntorntorn"...)); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	if err := os.WriteFile(filepath.Join(dir, objectsDir, "x.h5l.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Check mode sees all four problems and fixes none of them.
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("damaged store reported clean")
	}
	if len(rep.CorruptChunks) != 1 || rep.CorruptChunks[0].Object != "hurt" || rep.CorruptChunks[0].Chunk != 3 {
		t.Fatalf("corrupt chunks: %+v", rep.CorruptChunks)
	}
	if len(rep.RebuildableSegments) != 1 || rep.RebuildableSegments[0] != "rebuildme" {
		t.Fatalf("rebuildable: %v", rep.RebuildableSegments)
	}
	if rep.TornTailBytes == 0 || len(rep.TempFiles) != 1 {
		t.Fatalf("torn=%d temps=%v", rep.TornTailBytes, rep.TempFiles)
	}

	// Repair fixes everything fixable; the bit-rotted chunk is quarantined
	// (consistent, but flagged in the repair summary).
	rep, err = Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == nil {
		t.Fatal("repair summary missing")
	}
	if rep.Repaired.Recovery.SegmentsRebuilt != 1 {
		t.Fatalf("rebuild not performed: %+v", rep.Repaired.Recovery)
	}
	if rep.Repaired.Recovery.ChunksQuarantined != 1 {
		t.Fatalf("recovery quarantined %d chunks, want 1: %+v", rep.Repaired.Recovery.ChunksQuarantined, rep.Repaired.Recovery)
	}
	if got := len(rep.Repaired.Scrub.Corrupt); got != 0 {
		t.Fatalf("scrub re-condemned %d chunks after recovery handled them", got)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after repair: %v", rep.Problems())
	}

	// The store opens and serves: intact object byte-exact, rebuilt object
	// byte-exact, hurt object quarantined only at chunk 3.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if d, _, err := r.Get("fine"); err != nil || !d.Equal(fine) {
		t.Fatalf("intact object damaged by repair: %v", err)
	}
	if d, _, err := r.Get("rebuildme"); err != nil || !d.Equal(rebuilt) {
		t.Fatalf("rebuilt object unreadable: %v", err)
	}
	_, info, err := r.lookup("hurt")
	if err != nil || len(info.QuarantinedChunks) != 1 || info.QuarantinedChunks[0] != 3 {
		t.Fatalf("hurt object state: %+v %v", info, err)
	}

	// A second check is idempotent: still clean.
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil || !rep.Clean() {
		t.Fatalf("post-repair check: %v %v", rep.Problems(), err)
	}
}
