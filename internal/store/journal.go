package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync/atomic"

	"pressio/internal/core"
	"pressio/internal/fsx"
	"pressio/internal/trace"
)

// The write-ahead journal makes every store mutation durable before it is
// acknowledged. Each record is a self-delimiting frame in the LPFR idiom of
// internal/resilience: length-prefixed, CRC32-C checked, decoded with hard
// caps on every attacker-controlled size so a corrupted or truncated journal
// is rejected deterministically rather than trusted.
//
// Record layout (multi-byte integers little-endian unless marked uvarint):
//
//	offset  size  field
//	0       4     magic "PJL1" (version folded into the magic)
//	4       4     uint32 payload length
//	8       4     uint32 CRC32-C of the payload
//	12      n     payload
//
// Payload layout:
//
//	1 byte   op (1 = legacy put, 2 = delete, 3 = quarantine, 4 = put)
//	uvarint  LSN
//	uvarint  meta length, then meta JSON (recordMeta)
//	uvarint  chunk count, then per chunk: uvarint length + payload bytes
//	         (only a legacy op-1 put carries the post-filter chunk
//	         payloads, from which recovery rebuilds its segment; an op-4 put
//	         references a segment published before the record, and every
//	         other op carries zero chunks)
//
// A mutation is acknowledged only after an fsync makes its record durable.
// One record is appended and committed at a time, under the store's writer
// lock (see journal below).

// journalMagic identifies a journal record (the trailing '1' is the layout
// version).
const journalMagic = "PJL1"

// Record operations.
const (
	opPut        = 1 // legacy put carrying its payloads: replayed, never written
	opDelete     = 2
	opQuarantine = 3
	opPutRef     = 4 // put of a segment made durable before the record
)

// Decode caps: every size read from the journal is checked against one of
// these constants before it is allocated, looped over, or indexed with.
const (
	// maxRecordBytes bounds one framed record (header + payload).
	maxRecordBytes = 1 << 30
	// maxMetaBytes bounds the embedded metadata JSON.
	maxMetaBytes = 1 << 20
	// maxChunksPerObject bounds the chunk count of one object.
	maxChunksPerObject = 1 << 16
	// maxNameLen bounds an object name.
	maxNameLen = 512
	// maxDim bounds one dataset dimension and the total element count.
	maxDim = 1 << 48
)

// Journal crash points, one per ordering-critical filesystem operation. The
// crash matrix in crash_matrix_test.go enumerates these (plus the fsx.atomic
// points) and proves recovery at every one of them.
var (
	// PointJournalTorn fires mid-append: half the record reaches the file,
	// simulating a torn write that recovery must truncate.
	PointJournalTorn = fsx.RegisterFSPoint("store.journal.append.torn")
	// PointJournalWrite fires before the record write: nothing appended.
	PointJournalWrite = fsx.RegisterFSPoint("store.journal.append.write")
	// PointJournalFsync fires after the append, before the commit fsync: the record exists but is not yet durable, so the write must not
	// be acknowledged.
	PointJournalFsync = fsx.RegisterFSPoint("store.journal.append.fsync")
	// PointJournalTrunc fires before a checkpoint (or recovery) truncates
	// the journal.
	PointJournalTrunc = fsx.RegisterFSPoint("store.journal.truncate")
)

// castagnoli is the CRC32-C table shared with the resilience frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkMeta describes one stored chunk of an object: the dim-0 rows it
// covers, its post-filter byte length, and the CRC32-C of those bytes.
type ChunkMeta struct {
	Rows   uint64 `json:"rows"`
	Length uint64 `json:"length"`
	CRC    uint32 `json:"crc"`
}

// ObjectMeta is the durable description of one stored object.
type ObjectMeta struct {
	Name          string             `json:"name"`
	DType         string             `json:"dtype"`
	Dims          []uint64           `json:"dims"`
	Filter        string             `json:"filter,omitempty"`
	FilterOptions map[string]float64 `json:"filter_options,omitempty"`
	// Segment is the container file name under objects/: a number the put
	// reserved from the store's segment counter (a legacy put's LSN).
	Segment string      `json:"segment"`
	Chunks  []ChunkMeta `json:"chunks"`
	// LSN is the journal sequence number of the put that created this
	// version; live applies and replay are ordered by it.
	LSN uint64 `json:"lsn"`
}

// recordMeta is the JSON carried inside a journal record.
type recordMeta struct {
	// Object is set on put records.
	Object *ObjectMeta `json:"object,omitempty"`
	// Name is set on delete and quarantine records.
	Name string `json:"name,omitempty"`
	// Chunks lists the quarantined chunk indices on quarantine records.
	Chunks []int `json:"chunks,omitempty"`
}

// record is one decoded journal record.
type record struct {
	op     byte
	lsn    uint64
	meta   recordMeta
	chunks [][]byte
}

// corrupt builds the canonical journal-corruption error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("store: %w: "+format, append([]any{core.ErrCorrupt}, args...)...)
}

// encodeRecord frames one record. The frame is sized up front and the
// payload written once, behind a header whose length and checksum are
// patched in when the payload is complete.
func encodeRecord(rec record) ([]byte, error) {
	metaJSON, err := json.Marshal(rec.meta)
	if err != nil {
		return nil, err
	}
	head := len(journalMagic) + 8
	size := head + 1 + len(metaJSON) + (3+len(rec.chunks))*binary.MaxVarintLen64
	for _, ch := range rec.chunks {
		size += len(ch)
	}
	out := make([]byte, head, size)
	copy(out, journalMagic)
	out = append(out, rec.op)
	out = binary.AppendUvarint(out, rec.lsn)
	out = binary.AppendUvarint(out, uint64(len(metaJSON)))
	out = append(out, metaJSON...)
	out = binary.AppendUvarint(out, uint64(len(rec.chunks)))
	for _, ch := range rec.chunks {
		out = binary.AppendUvarint(out, uint64(len(ch)))
		out = append(out, ch...)
	}
	if len(out) > maxRecordBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds cap", len(out))
	}
	binary.LittleEndian.PutUint32(out[len(journalMagic):], uint32(len(out)-head))
	binary.LittleEndian.PutUint32(out[len(journalMagic)+4:], crc32.Checksum(out[head:], castagnoli))
	return out, nil
}

// decodeRecord parses and validates one framed record from the head of b,
// returning the bytes consumed so a scan can iterate. Every rejection wraps
// core.ErrCorrupt; a rejection at the head of a scan position means the tail
// from there on is torn. The input is a journal read back from disk after an
// arbitrary crash (or fed by the fuzzer), so nothing in it is trusted: every
// size is capped before allocation, every slice bound checked before use.
//
//pressio:untrusted
func decodeRecord(b []byte) (record, int, error) {
	var rec record
	if len(b) < len(journalMagic)+8 {
		return rec, 0, corrupt("truncated record header")
	}
	if string(b[:len(journalMagic)]) != journalMagic {
		return rec, 0, corrupt("missing record magic")
	}
	plen := int(binary.LittleEndian.Uint32(b[len(journalMagic):]))
	if plen > maxRecordBytes {
		return rec, 0, corrupt("declared payload of %d bytes exceeds cap", plen)
	}
	sum := binary.LittleEndian.Uint32(b[len(journalMagic)+4:])
	head := len(journalMagic) + 8
	if len(b)-head < plen {
		return rec, 0, corrupt("payload is %d bytes, header declares %d", len(b)-head, plen)
	}
	payload := b[head : head+plen]
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return rec, 0, corrupt("record checksum mismatch: payload %08x, header %08x", got, sum)
	}
	// From here on the payload is integrity-checked, but its *contents* are
	// still only as trustworthy as whoever wrote the file: keep every bound
	// explicit.
	if len(payload) < 1 {
		return rec, 0, corrupt("empty payload")
	}
	rec.op = payload[0]
	if rec.op < opPut || rec.op > opPutRef {
		return rec, 0, corrupt("unknown op %d", rec.op)
	}
	pos := 1
	lsn, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return rec, 0, corrupt("truncated lsn")
	}
	rec.lsn = lsn
	pos += n
	mlen, n := binary.Uvarint(payload[pos:])
	if n <= 0 || mlen > maxMetaBytes {
		return rec, 0, corrupt("bad meta length")
	}
	pos += n
	if uint64(len(payload)-pos) < mlen {
		return rec, 0, corrupt("truncated meta")
	}
	if err := json.Unmarshal(payload[pos:pos+int(mlen)], &rec.meta); err != nil {
		return rec, 0, corrupt("meta does not parse: %v", err)
	}
	pos += int(mlen)
	nchunks, n := binary.Uvarint(payload[pos:])
	if n <= 0 || nchunks > maxChunksPerObject {
		return rec, 0, corrupt("bad chunk count")
	}
	pos += n
	if nchunks > uint64(len(payload)-pos) {
		// Each chunk costs at least its one-byte length prefix, so the count
		// can never exceed the remaining bytes: reject before allocating.
		return rec, 0, corrupt("chunk count %d exceeds remaining payload", nchunks)
	}
	rec.chunks = make([][]byte, nchunks)
	for i := range rec.chunks {
		clen, n := binary.Uvarint(payload[pos:])
		if n <= 0 || clen > maxRecordBytes {
			return rec, 0, corrupt("bad chunk length")
		}
		pos += n
		if uint64(len(payload)-pos) < clen {
			return rec, 0, corrupt("truncated chunk")
		}
		rec.chunks[i] = payload[pos : pos+int(clen)]
		pos += int(clen)
	}
	if pos != len(payload) {
		return rec, 0, corrupt("%d trailing payload bytes", len(payload)-pos)
	}
	if err := validateRecord(&rec); err != nil {
		return rec, 0, err
	}
	return rec, head + plen, nil
}

// validateRecord cross-checks the decoded metadata against the carried
// payloads, so nothing downstream of the decoder needs to re-verify shape
// arithmetic or checksums.
func validateRecord(rec *record) error {
	switch rec.op {
	case opPut, opPutRef:
		om := rec.meta.Object
		if om == nil {
			return corrupt("put record without object meta")
		}
		if err := validateObjectMeta(om); err != nil {
			return err
		}
		if om.LSN != rec.lsn {
			return corrupt("object lsn %d does not match record lsn %d", om.LSN, rec.lsn)
		}
		if rec.op == opPutRef && len(rec.chunks) > 0 || rec.op == opPut && len(rec.chunks) != len(om.Chunks) {
			return corrupt("op %d record carries %d chunks, meta declares %d", rec.op, len(rec.chunks), len(om.Chunks))
		}
		for i, ch := range rec.chunks {
			if uint64(len(ch)) != om.Chunks[i].Length {
				return corrupt("chunk %d is %d bytes, meta declares %d", i, len(ch), om.Chunks[i].Length)
			}
			if got := crc32.Checksum(ch, castagnoli); got != om.Chunks[i].CRC {
				return corrupt("chunk %d checksum mismatch", i)
			}
		}
	case opDelete, opQuarantine:
		if err := validateName(rec.meta.Name); err != nil {
			return corrupt("bad record name: %v", err)
		}
		if len(rec.chunks) != 0 {
			return corrupt("op %d record carries chunk payloads", rec.op)
		}
		if rec.op == opQuarantine {
			if len(rec.meta.Chunks) == 0 || len(rec.meta.Chunks) > maxChunksPerObject {
				return corrupt("bad quarantine chunk list")
			}
			for _, idx := range rec.meta.Chunks {
				if idx < 0 || idx >= maxChunksPerObject {
					return corrupt("quarantine chunk index %d out of range", idx)
				}
			}
		}
	}
	return nil
}

// validateObjectMeta checks the bounds of a durable object description read
// from the journal or manifest.
func validateObjectMeta(om *ObjectMeta) error {
	if err := validateName(om.Name); err != nil {
		return corrupt("bad object name: %v", err)
	}
	if _, err := core.ParseDType(om.DType); err != nil {
		return corrupt("bad dtype %q", om.DType)
	}
	if len(om.Dims) == 0 || len(om.Dims) > core.MaxRank {
		return corrupt("rank %d out of range", len(om.Dims))
	}
	// An object may be empty: a zero extent counts as one towards the bound.
	shape := slices.Clone(om.Dims)
	for i, d := range shape {
		shape[i] = max(d, 1)
	}
	if _, err := core.CheckedElems(shape, maxDim); err != nil {
		return corrupt("declared shape too large: %v", err)
	}
	if !isSegmentName(om.Segment) {
		return corrupt("bad segment name %q", om.Segment)
	}
	if len(om.Chunks) > maxChunksPerObject {
		return corrupt("chunk count %d exceeds cap", len(om.Chunks))
	}
	var rows uint64
	for _, ch := range om.Chunks {
		if ch.Rows > maxDim || ch.Length > maxRecordBytes {
			return corrupt("chunk bounds out of range")
		}
		rows += ch.Rows
	}
	if rows != om.Dims[0] {
		return corrupt("chunks cover %d rows, dims declare %d", rows, om.Dims[0])
	}
	return nil
}

// validateName bounds an object name: it is only ever a map key and a JSON
// string — never a file path — but control bytes would still leak into logs
// and listings.
func validateName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("store: %w: object name length %d out of range [1, %d]", core.ErrInvalidOption, len(name), maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return fmt.Errorf("store: %w: object name contains control byte 0x%02x", core.ErrInvalidOption, name[i])
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("store: %w: reserved object name %q", core.ErrInvalidOption, name)
	}
	return nil
}

// isSegmentName reports whether s is a well-formed segment file name
// (16 lowercase hex digits + ".h5l"). Segment names from the journal are
// joined into file paths, so anything else — separators, dots, traversal —
// is rejected at decode time.
func isSegmentName(s string) bool {
	const suffix = ".h5l"
	if len(s) != 16+len(suffix) || s[16:] != suffix {
		return false
	}
	for i := 0; i < 16; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// segmentName names segment number seq (a legacy put's segment: its LSN).
func segmentName(seq uint64) string { return fmt.Sprintf("%016x.h5l", seq) }

// journal is the append-only record log. It has no lock of its own: every
// call runs inside Open or under the store's writer lock, so file order, LSN
// order and the order records apply to the live table are one order — the
// order replay applies them in.
type journal struct {
	f       *os.File
	size    int64
	lastLSN uint64
	// broken is set when only a replay can set the store right: after an
	// append that could not be rolled back (the file may end mid-record) or
	// a failed commit fsync (the record may still become durable, unapplied).
	// Nothing more may be appended or truncated until Open replays the file.
	// Atomic because Store.Ready reads it without the writer lock.
	broken atomic.Bool
}

// errJournalBroken refuses a mutation or checkpoint on a broken journal.
var errJournalBroken = errors.New("store: journal needs recovery: reopen the store")

// openJournal opens (creating if needed) the journal for appending. size
// must be the scanned valid length and lastLSN the highest LSN seen across
// manifest and journal — recovery establishes both.
func openJournal(path string, size int64, lastLSN uint64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, size: size, lastLSN: lastLSN}, nil
}

// append assigns the next LSN, frames the record, and writes it to the log.
// It does NOT fsync — the caller acknowledges nothing until commit returns.
//
// For put records the object meta's LSN is filled in here, once it is known.
func (j *journal) append(op byte, meta recordMeta, chunks [][]byte) (lsn uint64, err error) {
	if j.broken.Load() {
		return 0, errJournalBroken
	}
	lsn = j.lastLSN + 1
	if meta.Object != nil {
		meta.Object.LSN = lsn
	}
	rec, err := encodeRecord(record{op: op, lsn: lsn, meta: meta, chunks: chunks})
	if err != nil {
		return 0, err
	}
	if fsx.FSArmed(PointJournalTorn) {
		// Stage a torn append: half the record reaches the device, then the
		// crash fires. Recovery must quarantine and truncate this tail.
		if _, werr := j.f.Write(rec[:len(rec)/2]); werr == nil {
			_ = j.f.Sync()
		}
		j.broken.Store(true)
		return 0, fsx.FSCrash(PointJournalTorn)
	}
	if err := fsx.FSCrash(PointJournalTorn); err != nil {
		// Unreachable when due (the staging branch above runs instead); this
		// call exists to consume the fault's After count on skipped hits.
		return 0, err
	}
	if err := fsx.FSCrash(PointJournalWrite); err != nil {
		return 0, err
	}
	n, err := j.f.Write(rec)
	if err != nil {
		// Roll a partial append back so later records stay reachable; if even
		// that fails the journal is declared broken and the store read-only.
		if n > 0 {
			if terr := j.f.Truncate(j.size); terr != nil {
				j.broken.Store(true)
			}
		}
		return 0, err
	}
	j.size += int64(n)
	j.lastLSN = lsn
	trace.CounterAdd(trace.CtrStoreJournalRecords, 1)
	trace.CounterAdd(trace.CtrStoreJournalBytes, int64(n))
	return lsn, nil
}

// commit fsyncs the log: the acknowledgement point of the record just
// appended.
func (j *journal) commit() error {
	if err := fsx.FSCrash(PointJournalFsync); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	trace.CounterAdd(trace.CtrStoreJournalFsyncs, 1)
	return nil
}

// truncate cuts the journal to size and fsyncs it: to empty after a manifest
// checkpoint made its records redundant, or to the last whole record after
// a torn tail. LSNs keep increasing across truncations.
func (j *journal) truncate(size int64) error {
	if err := j.f.Truncate(size); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size = size
	return nil
}

// close flushes and closes the log.
func (j *journal) close() error {
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanJournal reads the log back and decodes records until the first
// corruption. It returns the decoded records, the byte offset up to which
// the log is valid, and a copy of the torn tail from there on, which must
// be quarantined and truncated (empty for a clean log). A missing file is
// an empty, clean log. LSNs must be strictly increasing in file order — a
// regression is treated as corruption at that point.
func scanJournal(path string) (recs []record, validSize int64, tail []byte, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil, nil
	}
	if err != nil {
		return nil, 0, nil, err
	}
	off := 0
	var lastLSN uint64
	for off < len(raw) {
		rec, n, derr := decodeRecord(raw[off:])
		if derr != nil {
			break
		}
		if rec.lsn <= lastLSN {
			break
		}
		lastLSN = rec.lsn
		// Chunk payloads alias raw; copy so the scan buffer can be released.
		for i, ch := range rec.chunks {
			rec.chunks[i] = append([]byte(nil), ch...)
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), bytes.Clone(raw[off:]), nil
}
