package store

import (
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The damaged-store goldens. testdata/golden/damaged is a small store
// directory, written by the legacy writer whose put records carry their chunk
// payloads, carrying one of each kind of damage recovery and fsck handle:
//
//   - MANIFEST.json checkpoints ckpt/rotted (chunk 2 bit-flipped on disk,
//     not yet quarantined) and ckpt/deleted;
//   - JOURNAL.pjl holds the put of journal/scrubbed (chunk 1 flipped and
//     quarantined by a scrub record), the put of journal/rebuilt (segment
//     removed), the delete of ckpt/deleted (its segment is the orphan) and a
//     torn tail;
//   - objects/ holds one unpublished *.tmp-* artifact.
//
// damaged.fsck.json and damaged.recovery.json beside it are the check-mode
// FsckReport and the RecoveryStats of an Open on a copy, recorded when the
// fixture was made; the test names each intended difference since. That
// fixture is never rewritten: it is the proof that a legacy directory still
// recovers.
//
// testdata/golden/damaged-op4 is the same build by today's writer, whose
// put records reference their segments (op 4). It pins the on-disk bytes of
// MANIFEST.json, a torn-tail PJL1 journal and the segment containers:
// buildDamagedStore must reproduce it byte for byte, and the -update-damaged
// flag rewrites it.

var updateDamaged = flag.Bool("update-damaged", false, "rewrite testdata/golden/damaged-op4 from buildDamagedStore")

var (
	legacyFixture  = filepath.Join("testdata", "golden", "damaged")
	damagedFixture = filepath.Join("testdata", "golden", "damaged-op4")
)

// buildDamagedStore writes the fixture into dir through the store's own
// API, then damages it from outside, as a failing disk would.
func buildDamagedStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rotted := mustPut(t, s, "ckpt/rotted", testData(32), PutOptions{Filter: "flate", ChunkRows: 8})
	mustPut(t, s, "ckpt/deleted", testData(12), PutOptions{ChunkRows: 6})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	scrubbed := mustPut(t, s, "journal/scrubbed", testData(24), PutOptions{Filter: "flate", ChunkRows: 8})
	rebuilt := mustPut(t, s, "journal/rebuilt", testData(16), PutOptions{ChunkRows: 8})
	if err := s.Delete("ckpt/deleted"); err != nil {
		t.Fatal(err)
	}
	flipChunkByte(t, s.segmentPath(scrubbed.Segment), 1)
	if rep, err := s.ScrubOnce(); err != nil || rep.Quarantined != 1 {
		t.Fatalf("fixture scrub: %+v %v", rep, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	flipChunkByte(t, s.segmentPath(rotted.Segment), 2)
	if err := os.Remove(s.segmentPath(rebuilt.Segment)); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write([]byte("PJL1torntorntorn")); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.segmentPath(rebuilt.Segment+".tmp-1"), []byte("unpublished"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The scrub's evidence copy is not part of the fixture.
	if err := os.RemoveAll(filepath.Join(dir, quarantineDir)); err != nil {
		t.Fatal(err)
	}
}

// readTree maps every regular file under root to its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// copyFixture copies a fixture store into a fresh temp dir.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, b := range readTree(t, fixture) {
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

func TestDamagedStoreGolden(t *testing.T) {
	if *updateDamaged {
		if err := os.RemoveAll(damagedFixture); err != nil {
			t.Fatal(err)
		}
		buildDamagedStore(t, damagedFixture)
	}
	fresh := t.TempDir()
	buildDamagedStore(t, fresh)
	want, got := readTree(t, damagedFixture), readTree(t, fresh)
	if len(want) != len(got) {
		t.Fatalf("fixture has %d files, a fresh build %d", len(want), len(got))
	}
	for rel, b := range want {
		if string(got[rel]) != string(b) {
			t.Errorf("a fresh build's %s differs from the pinned fixture", rel)
		}
	}

	var wantRep FsckReport
	readGolden(t, "damaged.fsck.json", &wantRep)
	// Today's fixture differs from the legacy one where the writer does:
	// journal/rebuilt's record carries no payloads, so its removed segment
	// cannot be rebuilt, and ckpt/deleted's segment went with its delete.
	rep, today := fsckFixture(t, damagedFixture), wantRep
	today.RebuildableSegments, today.MissingSegments, today.OrphanSegments = nil, []string{"journal/rebuilt"}, nil
	if !reflect.DeepEqual(rep, today) {
		t.Errorf("check-mode fsck of today's fixture:\n got %+v\nwant %+v", rep, today)
	}

	dir := copyFixture(t, legacyFixture)
	rep = fsckFixture(t, dir)
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stats := s.Recovery()

	if !reflect.DeepEqual(rep, wantRep) {
		t.Errorf("check-mode fsck:\n got %+v\nwant %+v", rep, wantRep)
	}
	var wantStats RecoveryStats
	readGolden(t, "damaged.recovery.json", &wantStats)
	// The one intended difference from the recording: journal/scrubbed's
	// only bad chunk was quarantined by the scrub, and recovery now skips
	// quarantined chunks as fsck and scrub do, so it no longer moves that
	// segment to quarantine/ and rebuilds it.
	wantStats.SegmentsRebuilt--
	wantStats.QuarantinedSegments = nil
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("recovery:\n got %+v\nwant %+v", stats, wantStats)
	}
}

// fsckFixture runs a check-mode fsck of dir, which it does not change.
func fsckFixture(t *testing.T, dir string) FsckReport {
	t.Helper()
	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Dir = ""
	return *rep
}
