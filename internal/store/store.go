package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
//	objects/        one h5lite container per object version, named by the
//	                LSN of the put that created it ("%016x.h5l")
//	quarantine/     evidence the store refuses to delete: torn journal
//	                tails, corrupt manifests, corrupt segment copies
//
// Mutations are journal-first: a put compresses, appends a record carrying
// the full chunk payloads, group-commit fsyncs it (the acknowledgement
// point), then publishes the segment container and applies to memory.
// Recovery replays the journal against the manifest, so a crash anywhere
// loses nothing acknowledged and invents nothing unacknowledged.

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

// PointSegmentSave fires after a put's journal commit, before any segment
// byte is written: the acknowledged record exists but its container does
// not, so recovery must rebuild the segment from the journaled payloads.
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
	// SegmentsRebuilt counts containers reconstructed from journaled chunk
	// payloads because the crash destroyed or never produced them.
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
	// OrphanSegments counts unreferenced segment files left for checkpoint
	// GC (unacknowledged writes that died before their journal record).
	OrphanSegments int `json:"orphan_segments"`
}

// object is one live object: immutable meta plus mutable quarantine state
// (both guarded by the store mutex) and a lazily opened container handle.
type object struct {
	meta        ObjectMeta
	quarantined map[int]bool

	fileMu sync.Mutex
	file   *h5lite.File
}

// Store is a crash-consistent compressed object store rooted at one
// directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	cond     *sync.Cond // signaled when an in-flight mutation resolves
	objects  map[string]*object
	inflight map[uint64]struct{}
	closed   bool

	j         *journal
	recovered atomic.Bool
	stats     RecoveryStats
}

// Open opens (creating if needed) the store at dir, running crash recovery
// before returning: temp sweep, manifest load, journal replay with segment
// verification and rebuild, torn-tail quarantine and truncation. The
// returned store is fully consistent; Ready reports true from here on.
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		objects:  map[string]*object{},
		inflight: map[uint64]struct{}{},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.recovered.Store(true)
	return s, nil
}

// Ready reports whether recovery has completed — the daemon gates /readyz
// on it, so no traffic reaches a store still reconciling its directory.
func (s *Store) Ready() bool { return s.recovered.Load() }

// Recovery returns what Open had to do.
func (s *Store) Recovery() RecoveryStats { return s.stats }

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestFile) }
func (s *Store) journalPath() string  { return filepath.Join(s.dir, journalFile) }
func (s *Store) segmentPath(name string) string {
	return filepath.Join(s.dir, objectsDir, name)
}

// recover reconciles the directory: see the package comment for the state
// machine (also documented step by step in docs/STORE.md).
func (s *Store) recover() error {
	// 1. Sweep atomic-write temp artifacts: unpublished by construction.
	for _, d := range []string{s.dir, filepath.Join(s.dir, objectsDir)} {
		entries, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && fsx.IsTempArtifact(e.Name()) {
				if err := os.Remove(filepath.Join(d, e.Name())); err != nil {
					return err
				}
				s.stats.TempFilesRemoved++
			}
		}
	}

	// 2. Load the checkpoint. A corrupt manifest is quarantined — never
	// deleted — and recovery continues from an empty state plus the journal.
	man, err := loadManifest(s.manifestPath())
	if err != nil {
		if qerr := s.quarantineFile(s.manifestPath(), "MANIFEST.corrupt"); qerr != nil {
			return fmt.Errorf("store: manifest unreadable (%v) and unquarantinable: %w", err, qerr)
		}
		s.stats.ManifestQuarantined = true
		man = manifest{Version: manifestVersion, Objects: map[string]manifestObject{}}
	}

	// 3. Seed state from the checkpoint, verifying each segment against its
	// durable chunk table. A checkpointed object's journal record is gone,
	// so damage here cannot be rebuilt: a structurally unreadable segment is
	// quarantined whole and the object dropped; individual chunks failing
	// their CRC get a chunk-granular quarantine (journaled once the journal
	// handle opens below) that keeps the intact chunks readable.
	type pendingCondemn struct {
		meta   ObjectMeta
		chunks []int
	}
	var pending []pendingCondemn
	for name, mo := range man.Objects {
		skip := map[int]bool{}
		for _, idx := range mo.Quarantined {
			skip[idx] = true
		}
		bad, verr := inspectSegment(s.segmentPath(mo.Meta.Segment), mo.Meta.Chunks, skip)
		if verr != nil {
			if qerr := s.quarantineFile(s.segmentPath(mo.Meta.Segment), mo.Meta.Segment+".corrupt"); qerr != nil && !os.IsNotExist(qerr) {
				return qerr
			}
			s.stats.QuarantinedSegments = append(s.stats.QuarantinedSegments, mo.Meta.Segment)
			s.stats.DroppedObjects = append(s.stats.DroppedObjects, name)
			continue
		}
		s.objects[name] = &object{meta: mo.Meta, quarantined: skip}
		s.stats.ManifestObjects++
		if len(bad) > 0 {
			pending = append(pending, pendingCondemn{meta: mo.Meta, chunks: bad})
		}
	}

	// 4. Replay the journal above the checkpoint's low-water mark. Put
	// records carry their chunk payloads, so a segment the crash destroyed
	// (or never produced) is rebuilt rather than lost.
	recs, validSize, total, err := scanJournal(s.journalPath())
	if err != nil {
		return err
	}
	maxLSN := man.LastLSN
	for _, rec := range recs {
		if rec.lsn > maxLSN {
			maxLSN = rec.lsn
		}
		if rec.lsn <= man.LastLSN {
			s.stats.Skipped++
			trace.CounterAdd(trace.CtrStoreReplaySkipped, 1)
			continue
		}
		switch rec.op {
		case opPut:
			om := *rec.meta.Object
			if err := s.replayPut(om, rec.chunks); err != nil {
				return err
			}
		case opDelete:
			if cur, ok := s.objects[rec.meta.Name]; ok && cur.meta.LSN < rec.lsn {
				delete(s.objects, rec.meta.Name)
			}
		case opQuarantine:
			if cur, ok := s.objects[rec.meta.Name]; ok {
				for _, idx := range rec.meta.Chunks {
					if idx >= 0 && idx < len(cur.meta.Chunks) {
						cur.quarantined[idx] = true
					}
				}
			}
		}
		s.stats.Replayed++
		trace.CounterAdd(trace.CtrStoreReplayed, 1)
	}

	// 5. Quarantine and truncate a torn tail. The tail bytes are preserved
	// as evidence before the truncate makes the journal clean.
	if validSize < total {
		tail, err := readTail(s.journalPath(), validSize, total)
		if err != nil {
			return err
		}
		tailName := fmt.Sprintf("journal-tail-lsn%016x-%d.bin", maxLSN, total-validSize)
		if err := fsx.AtomicWriteFile(filepath.Join(s.dir, quarantineDir, tailName), tail, 0o644); err != nil {
			return err
		}
		if err := fsx.FSCrash(PointJournalTrunc); err != nil {
			return err
		}
		if err := os.Truncate(s.journalPath(), validSize); err != nil {
			return err
		}
		if err := syncFile(s.journalPath()); err != nil {
			return err
		}
		s.stats.TornTailBytes = total - validSize
		trace.CounterAdd(trace.CtrStoreTornTails, 1)
		trace.CounterAdd(trace.CtrStoreTornBytes, total-validSize)
	}

	// 6. Count orphan segments (unacknowledged writes that died before
	// their journal record became durable); checkpoint GC removes them.
	referenced := map[string]bool{}
	for _, o := range s.objects {
		referenced[o.meta.Segment] = true
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, objectsDir))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if isSegmentName(e.Name()) && !referenced[e.Name()] {
			s.stats.OrphanSegments++
		}
	}

	j, err := openJournal(s.journalPath(), validSize, maxLSN)
	if err != nil {
		return err
	}
	s.j = j

	// 7. Journal the chunk-granular quarantines collected in step 3, now
	// that the journal handle exists. The verdict must be durable: bit rot
	// found on this reopen stays quarantined on the next one.
	for _, pc := range pending {
		if err := s.condemnChunks(pc.meta, pc.chunks); err != nil {
			return err
		}
		s.stats.ChunksQuarantined += len(pc.chunks)
	}
	return nil
}

// replayPut applies one journaled put during recovery, verifying the
// published segment against the record and rebuilding it from the carried
// payloads when it is missing or disagrees.
func (s *Store) replayPut(om ObjectMeta, chunks [][]byte) error {
	path := s.segmentPath(om.Segment)
	bad, err := inspectSegment(path, om.Chunks, nil)
	if err != nil || len(bad) > 0 {
		if err == nil || !os.IsNotExist(errRoot(err)) {
			// A present-but-wrong segment is evidence: quarantine before
			// rebuilding over the name.
			if qerr := s.quarantineFile(path, om.Segment+".corrupt"); qerr != nil && !os.IsNotExist(qerr) {
				return qerr
			}
			s.stats.QuarantinedSegments = append(s.stats.QuarantinedSegments, om.Segment)
		}
		if err := writeSegment(path, om, chunks); err != nil {
			return fmt.Errorf("store: rebuilding segment %s: %w", om.Segment, err)
		}
		s.stats.SegmentsRebuilt++
		trace.CounterAdd(trace.CtrStoreSegmentsRebuilt, 1)
		trace.CounterAdd(trace.CtrStoreChunksRepaired, int64(len(chunks)))
	}
	if cur, ok := s.objects[om.Name]; !ok || cur.meta.LSN < om.LSN {
		s.objects[om.Name] = &object{meta: om, quarantined: map[int]bool{}}
	}
	return nil
}

// quarantineFile moves a file into quarantine/ under a free name derived
// from base ("base", "base.1", "base.2", ...). The original is renamed, not
// copied: nothing is deleted, nothing is left to be mistaken for live state.
func (s *Store) quarantineFile(path, base string) error {
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		dst := filepath.Join(s.dir, quarantineDir, name)
		if _, err := os.Lstat(dst); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return err
		}
		if err := os.Rename(path, dst); err != nil {
			return err
		}
		return fsx.SyncDir(filepath.Join(s.dir, quarantineDir))
	}
}

// inspectSegment opens a container and checks it against the expected chunk
// table. A structural problem — unreadable container, missing dataset,
// wrong chunk count — is the returned error; per-chunk damage (rows,
// length, or CRC32-C disagreeing with the durable table) comes back as the
// bad index list. Chunks in skip (already quarantined: the store knows they
// are damaged) are exempt so a quarantined object is not re-condemned on
// every reopen.
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

// writeSegment publishes a container for om from raw chunk payloads.
func writeSegment(path string, om ObjectMeta, chunks [][]byte) error {
	raw := make([]h5lite.RawChunk, len(chunks))
	for i, ch := range chunks {
		raw[i] = h5lite.RawChunk{Rows: om.Chunks[i].Rows, Payload: ch}
	}
	g := h5lite.Create(path)
	if err := g.WriteRawDataset(datasetName, om.DType, om.Dims, om.Filter, om.FilterOptions, raw); err != nil {
		return err
	}
	return g.Save()
}

// readTail reads bytes [from, to) of a file.
func readTail(path string, from, to int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, to-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	return buf, nil
}

// syncFile fsyncs a file by path.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// errRoot unwraps to the deepest cause, so os.IsNotExist sees through the
// wrapping inspectSegment applies.
func errRoot(err error) error {
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err
		}
		err = next
	}
}

// Put stores d under name, replacing any existing object. The data is
// chunked and filtered through the named compressor, journaled with a
// group-commit fsync (the acknowledgement point: when Put returns nil the
// write survives any crash), then published as a segment container.
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
	chunks := make([][]byte, len(raw))
	for i, ch := range raw {
		chunks[i] = ch.Payload
		om.Chunks[i] = ChunkMeta{
			Rows:   ch.Rows,
			Length: uint64(len(ch.Payload)),
			CRC:    crc32.Checksum(ch.Payload, castagnoli),
		}
	}

	lsn, end, err := s.beginMutation(opPut, recordMeta{Object: &om}, chunks)
	if err != nil {
		return ObjectInfo{}, err
	}
	applied := false
	defer func() {
		if !applied {
			s.resolveMutation(lsn, nil)
		}
	}()

	// Group-commit fsync: the acknowledgement point.
	if err := s.j.commit(end); err != nil {
		return ObjectInfo{}, err
	}

	// Publish the segment. A failure here (or a crash) is recoverable: the
	// journaled payloads rebuild it on the next Open, but THIS call must not
	// claim success for state it did not publish.
	if err := fsx.FSCrash(PointSegmentSave); err != nil {
		return ObjectInfo{}, err
	}
	if err := writeSegment(s.segmentPath(om.Segment), om, chunks); err != nil {
		return ObjectInfo{}, err
	}

	applied = true
	jsize := s.resolveMutation(lsn, &om)
	trace.CounterAdd(trace.CtrStorePuts, 1)
	trace.CounterAdd(trace.CtrStorePutBytes, int64(d.ByteLen()))
	trace.ObserveDuration(trace.HistStorePut, time.Since(start))
	s.maybeCheckpoint(jsize)
	return infoOf(om, nil), nil
}

// beginMutation appends a record and registers its LSN as in-flight, all
// under the store lock so a concurrent checkpoint's low-water mark can never
// skip past an unapplied record.
func (s *Store) beginMutation(op byte, meta recordMeta, chunks [][]byte) (lsn uint64, end int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, ErrClosed
	}
	if op == opDelete {
		if _, ok := s.objects[meta.Name]; !ok {
			return 0, 0, fmt.Errorf("%w: %q", ErrNotFound, meta.Name)
		}
	}
	lsn, end, err = s.j.append(op, meta, chunks)
	if err != nil {
		return 0, 0, err
	}
	s.inflight[lsn] = struct{}{}
	return lsn, end, nil
}

// resolveMutation finishes an in-flight mutation. A successful put passes
// its meta to install the new object version (guarded by LSN so a racing
// newer put is never overwritten by an older one); aborts and failures pass
// nil and only drop the in-flight mark. Returns the journal size for
// checkpoint triggering.
func (s *Store) resolveMutation(lsn uint64, install *ObjectMeta) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if install != nil {
		if cur, ok := s.objects[install.Name]; !ok || cur.meta.LSN < install.LSN {
			s.objects[install.Name] = &object{meta: *install, quarantined: map[int]bool{}}
		}
	}
	delete(s.inflight, lsn)
	s.cond.Broadcast()
	return s.j.size
}

// maybeCheckpoint runs an automatic checkpoint when the journal has grown
// past the configured threshold. Failures are not surfaced to the mutation
// that tripped it — the mutation itself is durable — but the checkpoint
// counter not advancing makes the condition observable.
func (s *Store) maybeCheckpoint(journalSize int64) {
	threshold := s.opts.CheckpointBytes
	if threshold < 0 {
		return
	}
	if threshold == 0 {
		threshold = defaultCheckpointBytes
	}
	if journalSize >= threshold {
		_ = s.Checkpoint()
	}
}

// Checkpoint publishes the manifest snapshot and truncates the journal. It
// waits for in-flight mutations to resolve (new ones queue behind the store
// lock), so the low-water mark covers only fully published state.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for len(s.inflight) > 0 {
		s.cond.Wait()
	}
	lwm := s.j.lastAssigned()
	man := manifest{Version: manifestVersion, LastLSN: lwm, Objects: map[string]manifestObject{}}
	for name, o := range s.objects {
		man.Objects[name] = manifestObject{Meta: o.meta, Quarantined: sortedIndices(o.quarantined)}
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
	if err := s.j.reset(); err != nil {
		return err
	}
	s.gcSegmentsLocked(lwm)
	trace.CounterAdd(trace.CtrStoreCheckpoints, 1)
	return nil
}

// gcSegmentsLocked removes segment files that no live object references and
// whose LSN is at or below the checkpoint low-water mark (anything above it
// may belong to a mutation the next replay will re-apply). Quarantined
// evidence is untouched — it lives in quarantine/, not objects/.
func (s *Store) gcSegmentsLocked(lwm uint64) {
	referenced := map[string]bool{}
	for _, o := range s.objects {
		referenced[o.meta.Segment] = true
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, objectsDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !isSegmentName(name) || referenced[name] {
			continue
		}
		var lsn uint64
		if _, err := fmt.Sscanf(name, "%016x.h5l", &lsn); err != nil || lsn > lwm {
			continue
		}
		if os.Remove(filepath.Join(s.dir, objectsDir, name)) == nil {
			trace.CounterAdd(trace.CtrStoreGCSegments, 1)
		}
	}
}

// Get reads a whole object back, decompressing every chunk.
func (s *Store) Get(name string) (*core.Data, ObjectInfo, error) {
	start := time.Now()
	o, info, err := s.lookup(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if len(info.QuarantinedChunks) > 0 {
		return nil, info, fmt.Errorf("%w: object %q chunks %v", ErrQuarantined, name, info.QuarantinedChunks)
	}
	f, err := s.container(o)
	if err != nil {
		return nil, info, err
	}
	d, err := f.ReadDataset(datasetName)
	if err != nil {
		return nil, info, err
	}
	trace.CounterAdd(trace.CtrStoreGets, 1)
	trace.CounterAdd(trace.CtrStoreGetBytes, int64(d.ByteLen()))
	trace.ObserveDuration(trace.HistStoreGet, time.Since(start))
	return d, info, nil
}

// GetRows reads the hyperslab rows [start, start+count) along dimension 0,
// decompressing only the chunks it touches. Quarantined chunks outside the
// slab do not block the read.
func (s *Store) GetRows(name string, startRow, count uint64) (*core.Data, ObjectInfo, error) {
	start := time.Now()
	o, info, err := s.lookup(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if bad := overlapQuarantine(o.meta.Chunks, info.QuarantinedChunks, startRow, count); len(bad) > 0 {
		return nil, info, fmt.Errorf("%w: object %q chunks %v overlap rows [%d, %d)",
			ErrQuarantined, name, bad, startRow, startRow+count)
	}
	f, err := s.container(o)
	if err != nil {
		return nil, info, err
	}
	d, err := f.ReadRows(datasetName, startRow, count)
	if err != nil {
		return nil, info, err
	}
	trace.CounterAdd(trace.CtrStoreGets, 1)
	trace.CounterAdd(trace.CtrStoreGetBytes, int64(d.ByteLen()))
	trace.ObserveDuration(trace.HistStoreGet, time.Since(start))
	return d, info, nil
}

// GetRange reads the uncompressed byte range [off, off+length), touching
// only the chunks whose rows overlap it — the HTTP Range handler sits on
// this.
func (s *Store) GetRange(name string, off, length int64) ([]byte, ObjectInfo, error) {
	_, info, err := s.lookup(name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	total := int64(info.UncompressedBytes)
	if off < 0 || length <= 0 || length > total || off > total-length {
		return nil, info, fmt.Errorf("%w: %d bytes from %d of object %q (%d bytes)", ErrOutOfRange, length, off, name, total)
	}
	rb, err := rowBytesOf(info.DType, info.Dims)
	if err != nil {
		return nil, info, err
	}
	rowBytes := int64(rb)
	startRow := off / rowBytes
	endRow := (off + length + rowBytes - 1) / rowBytes
	d, info, err := s.GetRows(name, uint64(startRow), uint64(endRow-startRow))
	if err != nil {
		return nil, info, err
	}
	lo := off - startRow*rowBytes
	return d.Bytes()[lo : lo+length], info, nil
}

// Delete removes an object. Like Put, the delete is journal-first: it is
// acknowledged only after the tombstone record is fsynced.
func (s *Store) Delete(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	lsn, end, err := s.beginMutation(opDelete, recordMeta{Name: name}, nil)
	if err != nil {
		return err
	}
	applied := false
	defer func() {
		if !applied {
			s.resolveMutation(lsn, nil)
		}
	}()
	if err := s.j.commit(end); err != nil {
		return err
	}
	applied = true
	s.mu.Lock()
	if cur, ok := s.objects[name]; ok && cur.meta.LSN < lsn {
		delete(s.objects, name)
	}
	delete(s.inflight, lsn)
	s.cond.Broadcast()
	jsize := s.j.size
	s.mu.Unlock()
	trace.CounterAdd(trace.CtrStoreDeletes, 1)
	s.maybeCheckpoint(jsize)
	return nil
}

// List returns every live object, sorted by name.
func (s *Store) List() []ObjectInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectInfo, 0, len(s.objects))
	for _, o := range s.objects {
		out = append(out, infoOf(o.meta, sortedIndices(o.quarantined)))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Stat returns one object's info.
func (s *Store) Stat(name string) (ObjectInfo, error) {
	_, info, err := s.lookup(name)
	return info, err
}

// quarantineChunks journals and applies a chunk quarantine for an object
// (scrub and fsck call this when checksums fail). The segment file itself
// is additionally copied into quarantine/ by the caller when appropriate.
func (s *Store) quarantineChunks(name string, chunks []int) error {
	if len(chunks) == 0 {
		return nil
	}
	sort.Ints(chunks)
	lsn, end, err := s.beginMutation(opQuarantine, recordMeta{Name: name, Chunks: chunks}, nil)
	if err != nil {
		return err
	}
	applied := false
	defer func() {
		if !applied {
			s.resolveMutation(lsn, nil)
		}
	}()
	if err := s.j.commit(end); err != nil {
		return err
	}
	applied = true
	s.mu.Lock()
	if cur, ok := s.objects[name]; ok {
		for _, idx := range chunks {
			if idx >= 0 && idx < len(cur.meta.Chunks) {
				cur.quarantined[idx] = true
			}
		}
	}
	delete(s.inflight, lsn)
	s.cond.Broadcast()
	s.mu.Unlock()
	trace.CounterAdd(trace.CtrStoreChunksQuarantined, int64(len(chunks)))
	return nil
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
	return o, infoOf(o.meta, sortedIndices(o.quarantined)), nil
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

// Close drains in-flight mutations and closes the journal. It does NOT
// checkpoint — the next Open replays the journal — so callers wanting a
// fast restart call Checkpoint first (the daemon's lifecycle Stop does).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	for len(s.inflight) > 0 {
		s.cond.Wait()
	}
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

// sortedIndices flattens a quarantine set.
func sortedIndices(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for idx := range m {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}
