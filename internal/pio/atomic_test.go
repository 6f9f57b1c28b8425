package pio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

// armCrash arms an injected crash at the named fsx point and disarms it on
// cleanup.
func armCrash(t *testing.T, point string) {
	t.Helper()
	if err := fsx.ArmFS(fsx.FSFault{Point: point, Mode: fsx.FSModeFail}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fsx.DisarmFS)
}

// TestAtomicWriteKillMidWriteLeavesOldFileIntact simulates a process killed
// between writing the temp file and the publishing rename: the destination
// must keep its previous content byte for byte — never a torn prefix.
func TestAtomicWriteKillMidWriteLeavesOldFileIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	old := []byte("the complete old generation")
	if err := fsx.AtomicWriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	armCrash(t, fsx.PointRename)
	err := fsx.AtomicWriteFile(path, []byte("the new generation"), 0o644)
	if !errors.Is(err, fsx.ErrFSCrash) {
		t.Fatalf("crash point did not abort the write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(old) {
		t.Fatalf("destination torn after mid-write kill: %q", got)
	}

	// The write path recovers fully once the fault is gone.
	fsx.DisarmFS()
	if err := fsx.AtomicWriteFile(path, []byte("the new generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "the new generation" {
		t.Fatalf("post-recovery content %q", got)
	}
}

// TestAtomicWriteKillAtEveryPointLeavesOldFileIntact drives the crash
// through every declared fsx point before the publishing rename completes:
// at write, at fsync, and at rename the old generation must survive; at
// dirsync the rename has happened, so the new generation must be complete.
func TestAtomicWriteKillAtEveryPointLeavesOldFileIntact(t *testing.T) {
	for _, tc := range []struct {
		point   string
		wantNew bool
	}{
		{fsx.PointWrite, false},
		{fsx.PointFsync, false},
		{fsx.PointRename, false},
		{fsx.PointDirSync, true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "x.bin")
			if err := fsx.AtomicWriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			armCrash(t, tc.point)
			if err := fsx.AtomicWriteFile(path, []byte("new"), 0o644); !errors.Is(err, fsx.ErrFSCrash) {
				t.Fatalf("crash at %s did not abort the write: %v", tc.point, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := "old"
			if tc.wantNew {
				want = "new"
			}
			if string(got) != want {
				t.Fatalf("crash at %s: content %q, want %q", tc.point, got, want)
			}
		})
	}
}

// TestAtomicWriteKillMidWriteNpy drives the same crash through the npy
// plugin: the previous .npy file must still parse after a killed rewrite.
func TestAtomicWriteKillMidWriteNpy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.npy")
	writeVia := func(vals []float64) error {
		io, err := core.NewIO("npy")
		if err != nil {
			t.Fatal(err)
		}
		if err := io.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
			t.Fatal(err)
		}
		return io.Write(core.FromFloat64s(vals, uint64(len(vals))))
	}
	if err := writeVia([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	armCrash(t, fsx.PointRename)
	if err := writeVia([]float64{9, 9, 9, 9, 9, 9}); !errors.Is(err, fsx.ErrFSCrash) {
		t.Fatalf("crash point did not abort the npy rewrite: %v", err)
	}
	fsx.DisarmFS()

	io, err := core.NewIO("npy")
	if err != nil {
		t.Fatal(err)
	}
	if err := io.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
		t.Fatal(err)
	}
	d, err := io.Read(nil)
	if err != nil {
		t.Fatalf("old npy no longer parses after killed rewrite: %v", err)
	}
	got := d.AsFloat64s()
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("old npy content corrupted: %v", got)
	}
}

// TestAtomicWriteCleansTempOnFailure: an aborted write withdraws its temp
// file so crashed-then-restarted processes do not accumulate garbage (a real
// kill cannot clean up, but every in-process failure path must).
func TestAtomicWriteCleansTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	armCrash(t, fsx.PointRename)
	_ = fsx.AtomicWriteFile(filepath.Join(dir, "x.bin"), []byte("x"), 0o644)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind by failed write", e.Name())
		}
	}
}
