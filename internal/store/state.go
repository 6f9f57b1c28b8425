package store

import (
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"pressio/internal/fsx"
	"pressio/internal/h5lite"
)

// The store's state machine, written once. apply is the only transition of
// an object table: the live mutations call it in append order, under the
// writer lock, and readState folds the checkpoint and the journal through it
// in the same order for recovery and fsck alike. inspectSegment is the only
// check of a segment against its chunk table, for recovery, fsck and scrub.

// apply folds one record into an object table. A put installs its version
// when it is newer than the current one, with nothing quarantined (a legacy
// put keeps its record's payloads: a journal scan rebuilds its segment from
// them); a delete removes an older version; a quarantine marks its in-range
// chunks.
func apply(objects map[string]*object, rec record) {
	switch rec.op {
	case opPut, opPutRef:
		om := rec.meta.Object
		if cur, ok := objects[om.Name]; !ok || cur.meta.LSN < om.LSN {
			o := &object{meta: *om, quarantined: map[int]bool{}}
			if rec.op == opPut {
				o.payloads = rec.chunks
			}
			objects[om.Name] = o
		}
	case opDelete:
		if cur, ok := objects[rec.meta.Name]; ok && cur.meta.LSN < rec.lsn {
			delete(objects, rec.meta.Name)
		}
	case opQuarantine:
		if cur, ok := objects[rec.meta.Name]; ok {
			for _, idx := range rec.meta.Chunks {
				if idx >= 0 && idx < len(cur.meta.Chunks) {
					cur.quarantined[idx] = true
				}
			}
		}
	}
}

// skipSet turns a quarantine list into the set verification skips.
func skipSet(quarantined []int) map[int]bool {
	skip := make(map[int]bool, len(quarantined))
	for _, idx := range quarantined {
		skip[idx] = true
	}
	return skip
}

// dirState is a read-only view of a store directory: what recovery acts on
// and what check-mode fsck reports.
type dirState struct {
	temps []string // *.tmp-* artifacts, relative to the store root
	// manErr is why MANIFEST.json was rejected (the fold then starts empty).
	manErr          error
	manifestObjects int
	// replayed and skipped count journal records above and at or below the
	// checkpoint's low-water mark; lastLSN is the highest LSN seen in either,
	// lastSegment the highest segment number under objects/, orphans included.
	replayed, skipped    int
	lastLSN, lastSegment uint64
	// tail is the torn journal tail from validSize on (empty: clean).
	validSize int64
	tail      []byte
	// objects is the reachable table; legacy journaled puts keep their
	// payloads.
	objects map[string]*object
	orphans []string // segment files no reachable object references
}

// readState reads a store directory without changing it: the temp
// artifacts, the checkpoint, the journal folded over it through apply, and
// the orphan segments.
func readState(dir string) (*dirState, error) {
	st := &dirState{objects: map[string]*object{}}
	var segments []string // in name order, as ReadDir lists them
	for _, d := range []string{dir, filepath.Join(dir, objectsDir)} {
		entries, err := os.ReadDir(d)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, e := range entries {
			switch {
			case e.IsDir():
			case fsx.IsTempArtifact(e.Name()):
				rel, _ := filepath.Rel(dir, filepath.Join(d, e.Name()))
				st.temps = append(st.temps, rel)
			case d != dir && isSegmentName(e.Name()):
				segments = append(segments, e.Name())
			}
		}
	}

	man, err := loadManifest(filepath.Join(dir, manifestFile))
	st.manErr = err
	st.manifestObjects = len(man.Objects)
	for name, mo := range man.Objects {
		st.objects[name] = &object{meta: mo.Meta, quarantined: skipSet(mo.Quarantined)}
	}
	recs, validSize, tail, err := scanJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	st.validSize, st.tail, st.lastLSN = validSize, tail, man.LastLSN
	for _, rec := range recs {
		st.lastLSN = max(st.lastLSN, rec.lsn)
		if rec.lsn <= man.LastLSN {
			st.skipped++
			continue
		}
		apply(st.objects, rec)
		st.replayed++
	}

	referenced := map[string]bool{}
	for _, o := range st.objects {
		referenced[o.meta.Segment] = true
	}
	for _, seg := range segments {
		n, _ := strconv.ParseUint(seg[:16], 16, 64) // isSegmentName: 16 hex digits
		st.lastSegment = max(st.lastSegment, n)
		if !referenced[seg] {
			st.orphans = append(st.orphans, seg)
		}
	}
	return st, nil
}

// verdict is what verification found for one reachable object.
type verdict struct {
	name string
	o    *object
	bad  []int // unquarantined chunks disagreeing with the chunk table
	err  error // the segment is absent or not a readable container
}

// damaged reports a segment that is unreadable or has a bad chunk.
func (v verdict) damaged() bool { return v.err != nil || len(v.bad) > 0 }

// verify is the one verification pass: it checks the segment of every
// object in a table once, in name order, skipping quarantined chunks.
func verify(dir string, objects map[string]*object) []verdict {
	names := slices.Sorted(maps.Keys(objects))
	out := make([]verdict, len(names))
	for i, name := range names {
		o := objects[name]
		bad, err := inspectSegment(filepath.Join(dir, objectsDir, o.meta.Segment), o.meta.Chunks, o.quarantined)
		out[i] = verdict{name: name, o: o, bad: bad, err: err}
	}
	return out
}

// inspectSegment opens a container and checks it against the expected chunk
// table. A structural problem — absent or unreadable container, missing
// dataset, wrong chunk count — is the returned error; per-chunk damage
// (rows, length, or CRC32-C disagreeing with the durable table) comes back
// as the bad index list. Chunks in skip (already quarantined: the store
// knows they are damaged) are exempt, so a quarantined chunk is never
// condemned or rebuilt again.
func inspectSegment(path string, want []ChunkMeta, skip map[int]bool) ([]int, error) {
	f, err := h5lite.Open(path)
	if err != nil {
		return nil, err
	}
	raw, err := f.RawChunks(datasetName)
	if err != nil {
		return nil, err
	}
	if len(raw) != len(want) {
		return nil, corrupt("segment %s has %d chunks, meta declares %d", filepath.Base(path), len(raw), len(want))
	}
	var bad []int
	for i, ch := range raw {
		if skip[i] {
			continue
		}
		if ch.Rows != want[i].Rows || uint64(len(ch.Payload)) != want[i].Length ||
			crc32.Checksum(ch.Payload, castagnoli) != want[i].CRC {
			bad = append(bad, i)
		}
	}
	return bad, nil
}
