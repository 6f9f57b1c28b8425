package h5lite

import (
	"errors"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

// TestSaveKillMidWriteLeavesOldContainerIntact mirrors the pio crash tests:
// a container rewrite killed between the temp-file fsync and the publishing
// rename must leave the previous generation parseable byte for byte — the
// crash-consistency contract Save inherits from internal/fsx.
func TestSaveKillMidWriteLeavesOldContainerIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.h5l")
	old := core.FromFloat64s([]float64{1, 2, 3, 4}, 4)
	f := Create(path)
	if err := f.WriteDataset("data", old, DatasetOptions{Filter: "flate", ChunkRows: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}

	for _, point := range []string{fsx.PointWrite, fsx.PointFsync, fsx.PointRename} {
		t.Run(point, func(t *testing.T) {
			if err := fsx.ArmFS(fsx.FSFault{Point: point}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fsx.DisarmFS)
			g := Create(path)
			neu := core.FromFloat64s([]float64{9, 9, 9, 9, 9, 9}, 6)
			if err := g.WriteDataset("data", neu, DatasetOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := g.Save(); !errors.Is(err, fsx.ErrFSCrash) {
				t.Fatalf("crash at %s did not abort Save: %v", point, err)
			}
			fsx.DisarmFS()

			reopened, err := Open(path)
			if err != nil {
				t.Fatalf("old container no longer parses after killed rewrite: %v", err)
			}
			got, err := reopened.ReadDataset("data")
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(old) {
				t.Fatalf("old container content corrupted: %v", got.AsFloat64s())
			}
		})
	}

	// With the fault gone, the rewrite publishes and the new generation wins.
	g := Create(path)
	neu := core.FromFloat64s([]float64{9, 8, 7}, 3)
	if err := g.WriteDataset("data", neu, DatasetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.ReadDataset("data")
	if err != nil || !got.Equal(neu) {
		t.Fatalf("post-recovery rewrite lost: %v %v", got, err)
	}
}

// TestRawChunksRoundTrip pins the raw-chunk API the object store builds on:
// chunks extracted from a filtered dataset rebuild an identical container
// via WriteRawDataset, without re-running the filter.
func TestRawChunksRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.h5l")
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	d := core.FromFloat64s(vals, 64)
	f := Create(path)
	if err := f.WriteDataset("data", d, DatasetOptions{Filter: "flate", ChunkRows: 10}); err != nil {
		t.Fatal(err)
	}
	chunks, err := f.RawChunks("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 7 {
		t.Fatalf("got %d chunks, want 7", len(chunks))
	}
	meta, err := f.Meta("data")
	if err != nil {
		t.Fatal(err)
	}

	rebuilt := Create(filepath.Join(t.TempDir(), "b.h5l"))
	if err := rebuilt.WriteRawDataset("data", meta.DType, meta.Dims, meta.Filter, meta.Options, chunks); err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.ReadDataset("data")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatal("raw-chunk rebuild does not round-trip")
	}

	// Row coverage is validated: chunks must sum to dims[0].
	if err := rebuilt.WriteRawDataset("bad", meta.DType, []uint64{65}, meta.Filter, meta.Options, chunks); err == nil {
		t.Fatal("row-coverage mismatch accepted")
	}
}
