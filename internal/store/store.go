package store

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pressio/internal/core"
	"pressio/internal/fsx"
	"pressio/internal/h5lite"
	"pressio/internal/trace"
)

// On-disk layout of a store directory:
//
//	MANIFEST.json   checkpoint (atomic rewrite; see manifest.go)
//	JOURNAL.pjl     write-ahead log (see journal.go)
//	objects/        one h5lite container per object version, numbered from
//	                the store's segment counter ("%016x.h5l")
//	quarantine/     evidence the store refuses to delete: torn journal
//	                tails, corrupt manifests, corrupt segment copies
//
// A put writes its payload once, to a segment published outside the writer
// lock; under it, a record referencing the segment is appended, fsynced (the
// acknowledgement point) and applied to memory. Records apply in the order
// they are appended, the order recovery replays them in, so a crash anywhere
// loses nothing acknowledged and invents nothing unacknowledged: a segment
// no record references is debris, which Open removes.

// Store directory entries.
const (
	manifestFile  = "MANIFEST.json"
	journalFile   = "JOURNAL.pjl"
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	// datasetName is the fixed dataset name inside a segment container.
	datasetName = "data"
)

// defaultCheckpointBytes is the journal size that triggers an automatic
// manifest checkpoint when Options.CheckpointBytes is zero.
const defaultCheckpointBytes = 64 << 20

// PointSegmentSave fires before a put writes its segment, and so before its
// journal record: the put is not acknowledged and must not survive.
var PointSegmentSave = fsx.RegisterFSPoint("store.segment.save")

// Typed failures surfaced to callers (the daemon maps them onto HTTP).
var (
	// ErrNotFound reports a name with no live object.
	ErrNotFound = errors.New("store: object not found")
	// ErrQuarantined reports a read overlapping a chunk that failed its
	// checksum and was quarantined pending repair.
	ErrQuarantined = errors.New("store: data quarantined pending repair")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
	// ErrOutOfRange reports a row or byte range outside the object's
	// extent: the caller's mistake, not a fault in the store.
	ErrOutOfRange = h5lite.ErrOutOfRange
)

// Options configures a store.
type Options struct {
	// CheckpointBytes is the journal size that triggers an automatic
	// manifest checkpoint after a mutation. Zero means the 64 MiB default;
	// negative disables automatic checkpoints (Checkpoint can still be
	// called explicitly).
	CheckpointBytes int64
}

// PutOptions configures how one object is compressed and chunked.
type PutOptions struct {
	// Filter names a registered compressor applied per chunk ("" = none).
	Filter string
	// FilterOptions are numeric options for the filter (error bounds etc.).
	FilterOptions map[string]float64
	// ChunkRows is the number of dim-0 rows per chunk (0 = single chunk).
	ChunkRows uint64
}

// ObjectInfo is the caller-facing description of a stored object.
type ObjectInfo struct {
	Name              string             `json:"name"`
	DType             string             `json:"dtype"`
	Dims              []uint64           `json:"dims"`
	Filter            string             `json:"filter,omitempty"`
	FilterOptions     map[string]float64 `json:"filter_options,omitempty"`
	Chunks            int                `json:"chunks"`
	QuarantinedChunks []int              `json:"quarantined_chunks,omitempty"`
	LSN               uint64             `json:"lsn"`
	Segment           string             `json:"segment"`
	StoredBytes       uint64             `json:"stored_bytes"`
	UncompressedBytes uint64             `json:"uncompressed_bytes"`
}

// RecoveryStats summarizes what Open had to do to reconcile the directory.
type RecoveryStats struct {
	// ManifestObjects is the object count seeded from the checkpoint.
	ManifestObjects int `json:"manifest_objects"`
	// ManifestQuarantined reports a checkpoint that failed validation and
	// was moved to quarantine/ (recovery then starts from an empty state
	// and replays the journal).
	ManifestQuarantined bool `json:"manifest_quarantined,omitempty"`
	// Replayed and Skipped count journal records re-applied vs already
	// covered by the checkpoint.
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
	// TornTailBytes is the length of the torn journal tail quarantined and
	// truncated (0 = clean shutdown or clean tail).
	TornTailBytes int64 `json:"torn_tail_bytes"`
	// SegmentsRebuilt counts containers rebuilt from the chunk payloads of
	// legacy (op-1) put records because they were destroyed or never made.
	SegmentsRebuilt int `json:"segments_rebuilt"`
	// TempFilesRemoved counts *.tmp-* artifacts swept (by construction
	// unpublished, so removable).
	TempFilesRemoved int `json:"temp_files_removed"`
	// QuarantinedSegments lists segment files moved to quarantine/ because
	// they could not be reconciled with any journal record (external
	// corruption, not crashes, causes this).
	QuarantinedSegments []string `json:"quarantined_segments,omitempty"`
	// DroppedObjects lists objects removed from the live set because their
	// segment was unreconcilable.
	DroppedObjects []string `json:"dropped_objects,omitempty"`
	// ChunksQuarantined counts checkpointed chunks whose on-disk payload
	// failed its CRC during recovery; the object stays live, the damaged
	// chunks are quarantined (chunk-granular, journaled).
	ChunksQuarantined int `json:"chunks_quarantined,omitempty"`
	// OrphanSegments counts the unreferenced segments Open removed (or
	// quarantined, if the manifest was rejected): puts that died before their
	// commit, and superseded versions whose unlink a crash cut off.
	OrphanSegments int `json:"orphan_segments"`
}

// object is one live object: immutable meta plus mutable quarantine state
// (both guarded by the store's table lock) and a lazily opened container
// handle.
// In a table read from the directory, a version from a legacy put record
// also keeps its chunk payloads, so a damaged segment can be rebuilt.
type object struct {
	meta        ObjectMeta
	quarantined map[int]bool
	payloads    [][]byte

	fileMu sync.Mutex
	file   *h5lite.File
}

// Store is a crash-consistent compressed object store rooted at one
// directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	// wmu is the one writer. mutate holds it from journal append to live
	// apply, Checkpoint and Close throughout; every journal call runs under
	// it. Lock order: wmu, then mu.
	wmu sync.Mutex
	// mu guards the table readers use. Writers change objects and closed
	// under wmu and mu both, so holding either is enough to read them.
	mu      sync.RWMutex
	objects map[string]*object
	closed  bool

	j     *journal
	stats RecoveryStats
	// seq numbers segments; a put reserves the next one before it writes.
	seq atomic.Uint64
}

// Open opens (creating if needed) the store at dir, running crash recovery
// before returning: temp sweep, manifest load, journal replay with segment
// verification and rebuild, orphan removal, torn-tail quarantine and
// truncation. The returned store is fully consistent.
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, opts: opts, objects: map[string]*object{}}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Ready reports whether the store accepts writes. Recovery has completed
// (Open returns no store before it has), so it is false only while the
// journal is broken, until a reopen replays it; the daemon gates /readyz on
// it.
func (s *Store) Ready() bool { return !s.j.broken.Load() }

// Recovery returns what Open had to do.
func (s *Store) Recovery() RecoveryStats { return s.stats }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestFile) }
func (s *Store) journalPath() string  { return filepath.Join(s.dir, journalFile) }
func (s *Store) segmentPath(name string) string {
	return filepath.Join(s.dir, objectsDir, name)
}

// recover reconciles the directory: readState folds the checkpoint and the
// journal into the reachable table, one verification pass checks it, and
// recovery acts on the verdicts in the order below (docs/STORE.md walks
// the same steps).
func (s *Store) recover() error {
	st, err := readState(s.dir)
	if err != nil {
		return err
	}

	// 1. Sweep atomic-write temp artifacts: unpublished by construction.
	for _, rel := range st.temps {
		if err := os.Remove(filepath.Join(s.dir, rel)); err != nil {
			return err
		}
		s.stats.TempFilesRemoved++
	}

	// 2. A corrupt manifest is quarantined — never deleted — and the fold
	// above already started from an empty table plus the journal.
	if st.manErr != nil {
		if qerr := s.quarantineFile(s.manifestPath(), "MANIFEST.corrupt"); qerr != nil {
			return fmt.Errorf("store: manifest unreadable (%v) and unquarantinable: %w", st.manErr, qerr)
		}
		s.stats.ManifestQuarantined = true
	}

	// 3. Act on the verdicts. A damaged segment of a legacy put is rebuilt
	// from its journaled payloads. Any other unreadable segment cannot be
	// repaired: it is quarantined and the object dropped, while individually
	// bad chunks are condemned in step 7, keeping the intact chunks readable.
	// A damaged original is moved to quarantine/ as evidence first.
	var condemn []verdict
	for _, v := range verify(s.dir, st.objects) {
		switch {
		case !v.damaged():
		case v.o.payloads != nil:
			if err := s.evictSegment(v.o.meta.Segment); err != nil {
				return err
			}
			raw := make([]h5lite.RawChunk, len(v.o.payloads))
			for i, p := range v.o.payloads {
				raw[i] = h5lite.RawChunk{Rows: v.o.meta.Chunks[i].Rows, Payload: p}
			}
			if err := writeSegment(s.segmentPath(v.o.meta.Segment), v.o.meta, raw); err != nil {
				return fmt.Errorf("store: rebuilding segment %s: %w", v.o.meta.Segment, err)
			}
			s.stats.SegmentsRebuilt++
			trace.CounterAdd(trace.CtrStoreSegmentsRebuilt, 1)
			trace.CounterAdd(trace.CtrStoreChunksRepaired, int64(len(v.o.payloads)))
		case v.err != nil:
			if err := s.evictSegment(v.o.meta.Segment); err != nil {
				return err
			}
			delete(st.objects, v.name)
			s.stats.DroppedObjects = append(s.stats.DroppedObjects, v.name)
		default:
			condemn = append(condemn, v)
		}
		v.o.payloads = nil // the live table holds no payloads
	}
	s.objects = st.objects
	s.stats.ManifestObjects = st.manifestObjects - len(s.stats.DroppedObjects)
	s.stats.Replayed, s.stats.Skipped = st.replayed, st.skipped
	trace.CounterAdd(trace.CtrStoreReplayed, int64(st.replayed))
	trace.CounterAdd(trace.CtrStoreReplaySkipped, int64(st.skipped))

	// 4. Remove the orphans, or quarantine them if the manifest was rejected.
	// New segments are numbered above every number seen, orphans included,
	// and every LSN (a legacy segment's number).
	for _, seg := range st.orphans {
		var err error
		if st.manErr != nil {
			err = s.evictSegment(seg) // the rejected manifest may have referenced it
		} else {
			err = os.Remove(s.segmentPath(seg))
		}
		if err != nil {
			return err
		}
		trace.CounterAdd(trace.CtrStoreGCSegments, 1)
	}
	s.stats.OrphanSegments = len(st.orphans)
	s.seq.Store(max(st.lastLSN, st.lastSegment))

	// 5. Open the journal.
	j, err := openJournal(s.journalPath(), st.validSize, st.lastLSN)
	if err != nil {
		return err
	}
	s.j = j

	// 6. Quarantine and truncate a torn tail. The tail bytes are preserved
	// as evidence before the truncate makes the journal clean.
	if torn := int64(len(st.tail)); torn > 0 {
		tailName := fmt.Sprintf("journal-tail-lsn%016x-%d.bin", st.lastLSN, torn)
		if err := fsx.AtomicWriteFile(filepath.Join(s.dir, quarantineDir, tailName), st.tail, 0o644); err != nil {
			return err
		}
		if err := fsx.FSCrash(PointJournalTrunc); err != nil {
			return err
		}
		if err := j.truncate(st.validSize); err != nil {
			return err
		}
		s.stats.TornTailBytes = torn
		trace.CounterAdd(trace.CtrStoreTornTails, 1)
		trace.CounterAdd(trace.CtrStoreTornBytes, torn)
	}

	// 7. Journal the chunk quarantines collected in step 3. The verdict must
	// be durable: bit rot found on this reopen stays quarantined on the next.
	for _, v := range condemn {
		n, err := s.quarantineChunks(v.o.meta, v.bad)
		if err != nil {
			return err
		}
		s.stats.ChunksQuarantined += n
	}
	return nil
}

// evictSegment moves a damaged segment into quarantine/ as evidence. An
// absent segment is nothing to move and is not listed.
func (s *Store) evictSegment(segment string) error {
	err := s.quarantineFile(s.segmentPath(segment), segment+".corrupt")
	if os.IsNotExist(err) {
		return nil
	}
	if err == nil {
		s.stats.QuarantinedSegments = append(s.stats.QuarantinedSegments, segment)
	}
	return err
}

// quarantineFile moves a file into quarantine/ under a free name derived
// from base. The original is renamed, not copied: nothing is deleted,
// nothing is left to be mistaken for live state.
func (s *Store) quarantineFile(path, base string) error {
	dst, err := s.quarantinePath(base)
	if err != nil {
		return err
	}
	if err := os.Rename(path, dst); err != nil {
		return err
	}
	return fsx.SyncDir(filepath.Join(s.dir, quarantineDir))
}

// quarantinePath picks a free name in quarantine/ derived from base
// ("base", "base.1", "base.2", ...). Any error other than "no such file"
// is returned: quarantine/ may be unusable, and probing on would spin.
func (s *Store) quarantinePath(base string) (string, error) {
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		dst := filepath.Join(s.dir, quarantineDir, name)
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return dst, nil
		} else if err != nil {
			return "", err
		}
	}
}

// writeSegment publishes a container for om from its filtered chunks, which
// it takes over uncopied: callers never touch them again.
func writeSegment(path string, om ObjectMeta, raw []h5lite.RawChunk) error {
	g := h5lite.Create(path)
	if err := g.WriteRawDataset(datasetName, om.DType, om.Dims, om.Filter, om.FilterOptions, raw); err != nil {
		return err
	}
	return g.Save()
}

// Put stores d under name, replacing any existing object. The data is
// chunked, filtered through the named compressor and published as a segment,
// outside the writer lock, so puts run in parallel; then a record naming the
// segment is journaled with an fsync (the acknowledgement point: when Put
// returns nil the write survives any crash).
func (s *Store) Put(name string, d *core.Data, po PutOptions) (ObjectInfo, error) {
	start := time.Now()
	if err := validateName(name); err != nil {
		return ObjectInfo{}, err
	}
	if d == nil || !d.HasData() || d.NumDims() == 0 {
		return ObjectInfo{}, fmt.Errorf("store: %w", core.ErrNilData)
	}

	raw, meta, err := h5lite.FilterChunks(d, h5lite.DatasetOptions{
		ChunkRows: po.ChunkRows, Filter: po.Filter, FilterOptions: po.FilterOptions,
	})
	if err != nil {
		return ObjectInfo{}, err
	}
	om := ObjectMeta{
		Name:          name,
		DType:         meta.DType,
		Dims:          meta.Dims,
		Filter:        meta.Filter,
		FilterOptions: meta.Options,
		Chunks:        make([]ChunkMeta, len(raw)),
	}
	for i, ch := range raw {
		om.Chunks[i] = ChunkMeta{
			Rows:   ch.Rows,
			Length: uint64(len(ch.Payload)),
			CRC:    crc32.Checksum(ch.Payload, castagnoli),
		}
	}

	om.Segment = segmentName(s.seq.Add(1))
	path := s.segmentPath(om.Segment)
	if err = fsx.FSCrash(PointSegmentSave); err == nil {
		if err = writeSegment(path, om, raw); err == nil {
			err = s.mutate(record{op: opPutRef, meta: recordMeta{Object: &om}})
		}
	}
	if err != nil {
		// Uncommitted, the segment is debris, unless the journal broke: then
		// the record may be durable and replay needs the segment.
		if !s.j.broken.Load() {
			_ = os.Remove(path)
		}
		return ObjectInfo{}, err
	}
	trace.CounterAdd(trace.CtrStorePuts, 1)
	trace.CounterAdd(trace.CtrStorePutBytes, int64(d.ByteLen()))
	trace.ObserveDuration(trace.HistStorePut, time.Since(start))
	return infoOf(om, nil), nil
}

// mutate runs one journal-first mutation under the writer lock, then unlinks
// the segment of the version it superseded, best effort (Open removes what
// it leaves).
func (s *Store) mutate(rec record) error {
	s.wmu.Lock()
	old, err := s.mutateLocked(rec)
	s.wmu.Unlock()
	if old != nil && os.Remove(s.segmentPath(old.meta.Segment)) == nil {
		trace.CounterAdd(trace.CtrStoreGCSegments, 1)
	}
	return err
}

// mutateLocked appends rec (assigning its LSN, and for a put its meta's),
// fsyncs it (the acknowledgement point) and applies the record to the live
// table. It returns the version the record superseded, if any. A delete of
// an absent name is refused before the append; a failed append or commit
// applies nothing. The caller holds wmu.
func (s *Store) mutateLocked(rec record) (*object, error) {
	if s.closed {
		return nil, ErrClosed
	}
	name := rec.meta.Name
	if rec.meta.Object != nil {
		name = rec.meta.Object.Name
	}
	cur, ok := s.objects[name]
	if rec.op == opDelete && !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lsn, err := s.j.append(rec.op, rec.meta, rec.chunks)
	if err != nil {
		return nil, err
	}
	rec.lsn = lsn
	if err := s.j.commit(); err != nil {
		// The record may reach the device anyway, and a later fsync would
		// make it durable without its being applied.
		s.j.broken.Store(true)
		return nil, err
	}
	s.mu.Lock()
	apply(s.objects, rec)
	s.mu.Unlock()
	if s.objects[name] == cur {
		cur = nil // a quarantine supersedes nothing
	}
	// A checkpoint lands on the mutation that crossed the threshold. Its
	// failure is not surfaced here — this mutation is durable — but the
	// checkpoint counter not advancing makes the condition observable.
	if limit := s.opts.CheckpointBytes; limit >= 0 && s.j.size >= cmp.Or(limit, defaultCheckpointBytes) {
		_ = s.checkpointLocked()
	}
	return cur, nil
}

// Checkpoint publishes the manifest snapshot and truncates the journal.
func (s *Store) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint under the writer lock: no mutation is in
// flight, so the manifest covers exactly the records the journal holds. A
// broken journal may hold a record the live table lacks, so it is never
// truncated: only a replay decides that record.
func (s *Store) checkpointLocked() error {
	if s.j.broken.Load() {
		return errJournalBroken
	}
	man := manifest{Version: manifestVersion, LastLSN: s.j.lastLSN, Objects: map[string]manifestObject{}}
	for name, o := range s.objects {
		man.Objects[name] = manifestObject{Meta: o.meta, Quarantined: slices.Sorted(maps.Keys(o.quarantined))}
	}
	if err := fsx.FSCrash(PointManifest); err != nil {
		return err
	}
	if err := saveManifest(s.manifestPath(), man); err != nil {
		return err
	}
	if err := fsx.FSCrash(PointJournalTrunc); err != nil {
		return err
	}
	if err := s.j.truncate(0); err != nil {
		return err
	}
	trace.CounterAdd(trace.CtrStoreCheckpoints, 1)
	return nil
}

// Get reads a whole object back, decompressing every chunk.
func (s *Store) Get(name string) (*core.Data, ObjectInfo, error) { return s.read(name, nil) }

// GetRows reads the hyperslab rows [start, start+count) along dimension 0,
// decompressing only the chunks it touches. Quarantined chunks outside the
// slab do not block the read.
func (s *Store) GetRows(name string, startRow, count uint64) (*core.Data, ObjectInfo, error) {
	return s.read(name, func(ObjectInfo) (uint64, uint64, error) { return startRow, count, nil })
}

// GetRange reads the uncompressed byte range [off, off+length), touching
// only the chunks whose rows overlap it — the HTTP Range handler sits on
// this.
func (s *Store) GetRange(name string, off, length int64) ([]byte, ObjectInfo, error) {
	var lo int64
	d, info, err := s.read(name, func(info ObjectInfo) (uint64, uint64, error) {
		total := int64(info.UncompressedBytes)
		if off < 0 || length <= 0 || length > total || off > total-length {
			return 0, 0, fmt.Errorf("%w: %d bytes from %d of object %q (%d bytes)", ErrOutOfRange, length, off, name, total)
		}
		rowBytes := total / int64(info.Dims[0]) // total > 0, so Dims[0] > 0
		startRow, endRow := off/rowBytes, (off+length+rowBytes-1)/rowBytes
		lo = off - startRow*rowBytes
		return uint64(startRow), uint64(endRow - startRow), nil
	})
	if err != nil {
		return nil, info, err
	}
	return d.Bytes()[lo : lo+length], info, nil
}

// read reads the rows span picks from the version it looks up, or, with span
// nil, the whole object. A quarantined chunk among them refuses the read. A
// version superseded since the lookup may have lost its segment: read then
// looks the name up again, so a live object is never missing. The info
// returned is that of the version read or refused.
func (s *Store) read(name string, span func(ObjectInfo) (uint64, uint64, error)) (*core.Data, ObjectInfo, error) {
	start := time.Now()
	for {
		o, info, err := s.lookup(name)
		if err != nil {
			return nil, ObjectInfo{}, err
		}
		var first, count uint64
		bad := info.QuarantinedChunks
		if span != nil {
			if first, count, err = span(info); err != nil {
				return nil, info, err
			}
			bad = overlapQuarantine(o.meta.Chunks, bad, first, count)
		}
		if len(bad) > 0 {
			return nil, info, fmt.Errorf("%w: object %q chunks %v", ErrQuarantined, name, bad)
		}
		f, err := s.container(o)
		if errors.Is(err, ErrNotFound) && !s.live(o.meta) {
			continue
		}
		var d *core.Data
		if err == nil && span == nil {
			d, err = f.ReadDataset(datasetName)
		} else if err == nil {
			d, err = f.ReadRows(datasetName, first, count)
		}
		if err != nil {
			return nil, info, err
		}
		trace.CounterAdd(trace.CtrStoreGets, 1)
		trace.CounterAdd(trace.CtrStoreGetBytes, int64(d.ByteLen()))
		trace.ObserveDuration(trace.HistStoreGet, time.Since(start))
		return d, info, nil
	}
}

// Delete removes an object. Like a put, it is acknowledged only after an
// fsync makes its record (a tombstone) durable; its segment goes after.
func (s *Store) Delete(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	if err := s.mutate(record{op: opDelete, meta: recordMeta{Name: name}}); err != nil {
		return err
	}
	trace.CounterAdd(trace.CtrStoreDeletes, 1)
	return nil
}

// List returns every live object, sorted by name.
func (s *Store) List() []ObjectInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectInfo, 0, len(s.objects))
	for _, o := range s.objects {
		out = append(out, infoOf(o.meta, slices.Sorted(maps.Keys(o.quarantined))))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// lookup snapshots an object under the read lock.
func (s *Store) lookup(name string) (*object, ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ObjectInfo{}, ErrClosed
	}
	o, ok := s.objects[name]
	if !ok {
		return nil, ObjectInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return o, infoOf(o.meta, slices.Sorted(maps.Keys(o.quarantined))), nil
}

// live reports whether the version meta describes is still the live one.
func (s *Store) live(meta ObjectMeta) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[meta.Name]
	return ok && o.meta.LSN == meta.LSN
}

// container opens (and caches) an object's segment file.
func (s *Store) container(o *object) (*h5lite.File, error) {
	o.fileMu.Lock()
	defer o.fileMu.Unlock()
	if o.file != nil {
		return o.file, nil
	}
	f, err := h5lite.Open(s.segmentPath(o.meta.Segment))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q (segment vanished)", ErrNotFound, o.meta.Name)
		}
		return nil, err
	}
	o.file = f
	return f, nil
}

// Close waits for the mutation in progress, if any, and closes the journal.
// It does NOT checkpoint — the next Open replays the journal — so callers
// wanting a fast restart call Checkpoint first (the daemon's lifecycle Stop
// does).
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return nil
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.j.close()
}

// infoOf builds the caller-facing info from durable meta.
func infoOf(om ObjectMeta, quarantined []int) ObjectInfo {
	info := ObjectInfo{
		Name:              om.Name,
		DType:             om.DType,
		Dims:              append([]uint64(nil), om.Dims...),
		Filter:            om.Filter,
		FilterOptions:     om.FilterOptions,
		Chunks:            len(om.Chunks),
		QuarantinedChunks: quarantined,
		LSN:               om.LSN,
		Segment:           om.Segment,
	}
	for _, ch := range om.Chunks {
		info.StoredBytes += ch.Length
	}
	if rb, err := rowBytesOf(om.DType, om.Dims); err == nil {
		info.UncompressedBytes = om.Dims[0] * rb
	}
	return info
}

// rowBytesOf computes the byte width of one dim-0 row of a stored object.
func rowBytesOf(dtype string, dims []uint64) (uint64, error) {
	dt, err := core.ParseDType(dtype)
	if err != nil {
		return 0, err
	}
	return core.RowBytes(dt, dims)
}

// overlapQuarantine returns the quarantined chunk indices whose row spans
// intersect [startRow, startRow+count).
func overlapQuarantine(chunks []ChunkMeta, quarantined []int, startRow, count uint64) []int {
	if len(quarantined) == 0 {
		return nil
	}
	spans := make([][2]uint64, len(chunks))
	row := uint64(0)
	for i, ch := range chunks {
		spans[i] = [2]uint64{row, row + ch.Rows}
		row += ch.Rows
	}
	var bad []int
	lo, hi := startRow, startRow+count
	for _, idx := range quarantined {
		if idx < 0 || idx >= len(spans) {
			continue
		}
		if spans[idx][0] < hi && spans[idx][1] > lo {
			bad = append(bad, idx)
		}
	}
	return bad
}
