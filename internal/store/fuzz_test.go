package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
)

// FuzzDecodeRecord asserts the journal decoder's contract on arbitrary
// bytes: it never panics, never allocates unbounded (the caps in
// journal.go), every rejection wraps core.ErrCorrupt, and an accepted
// record re-encodes to the identical frame (so replay is deterministic).
// The committed seed corpus in testdata/fuzz/FuzzDecodeRecord covers each
// record type plus classic corruptions.
func FuzzDecodeRecord(f *testing.F) {
	put, err := encodeRecord(testPutRecord(3, "obj/a", []byte("chunk0"), []byte("chunk-1")))
	if err != nil {
		f.Fatal(err)
	}
	del, err := encodeRecord(record{op: opDelete, lsn: 9, meta: recordMeta{Name: "obj/a"}})
	if err != nil {
		f.Fatal(err)
	}
	quar, err := encodeRecord(record{op: opQuarantine, lsn: 10, meta: recordMeta{Name: "obj/a", Chunks: []int{1}}})
	if err != nil {
		f.Fatal(err)
	}
	ref, err := encodeRecord(testPutRefRecord(4, "obj/a", []byte("chunk0"), []byte("chunk-1")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(put)
	f.Add(ref)
	f.Add(del)
	f.Add(quar)
	f.Add(put[:len(put)-2])
	f.Add([]byte(journalMagic))
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), put...), del...))

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := decodeRecord(b)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		// The JSON meta can serialize map keys differently, so compare the
		// decoded forms rather than raw bytes.
		again, m, err := decodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if m != len(re) || again.op != rec.op || again.lsn != rec.lsn || len(again.chunks) != len(rec.chunks) {
			t.Fatalf("record changed across round trip: %+v vs %+v", rec, again)
		}
	})
}

// FuzzLoadManifest asserts the checkpoint parser's contract on arbitrary
// bytes: it never panics, every rejection wraps core.ErrCorrupt, and every
// object of an accepted manifest passes validateObjectMeta under its own
// name, with every quarantine index in range. The seeds are the damaged
// golden store's MANIFEST.json plus truncations and mutations of it.
func FuzzLoadManifest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join(damagedFixture, manifestFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 2, len(golden) - 2} {
		f.Add(golden[:n])
	}
	for _, m := range [][2]string{
		{`"version": 1`, `"version": 2`},
		{`"rows": 8`, `"rows": 9`},
		{`"name": "ckpt/rotted"`, `"name": "ckpt/other"`},
		{`"segment": "0000000000000001.h5l"`, `"segment": "../MANIFEST.json"`},
		{`"lsn": 1`, `"lsn": -1`},
		{`"objects": {`, `"objects": {"q": {"meta": {"name": "q", "dtype": "float64", "dims": [1], "segment": "0000000000000009.h5l", "chunks": [{"rows": 1}]}, "quarantined": [1]},`},
	} {
		f.Add(bytes.Replace(golden, []byte(m[0]), []byte(m[1]), 1))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		man, err := parseManifest(b)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			if len(man.Objects) != 0 {
				t.Fatalf("rejected manifest came back with %d objects", len(man.Objects))
			}
			return
		}
		for name, mo := range man.Objects {
			if name != mo.Meta.Name {
				t.Fatalf("key %q holds object %q", name, mo.Meta.Name)
			}
			if err := validateObjectMeta(&mo.Meta); err != nil {
				t.Fatalf("accepted object %q fails validation: %v", name, err)
			}
			for _, idx := range mo.Quarantined {
				if idx < 0 || idx >= len(mo.Meta.Chunks) {
					t.Fatalf("accepted object %q quarantines chunk %d of %d", name, idx, len(mo.Meta.Chunks))
				}
			}
		}
	})
}
