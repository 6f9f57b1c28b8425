package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// testPutRecord builds a valid put record for codec tests.
func testPutRecord(lsn uint64, name string, payloads ...[]byte) record {
	om := &ObjectMeta{
		Name:    name,
		DType:   "float64",
		Dims:    []uint64{uint64(len(payloads))},
		Segment: segmentName(lsn),
		LSN:     lsn,
		Chunks:  make([]ChunkMeta, len(payloads)),
	}
	for i, p := range payloads {
		om.Chunks[i] = ChunkMeta{Rows: 1, Length: uint64(len(p)), CRC: crc32.Checksum(p, castagnoli)}
	}
	return record{op: opPut, lsn: lsn, meta: recordMeta{Object: om}, chunks: payloads}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []record{
		testPutRecord(1, "a", []byte("chunk-one"), []byte("chunk-two")),
		{op: opDelete, lsn: 2, meta: recordMeta{Name: "a"}},
		{op: opQuarantine, lsn: 3, meta: recordMeta{Name: "b", Chunks: []int{0, 3}}},
	}
	var buf []byte
	for _, rec := range recs {
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.op != want.op || got.lsn != want.lsn {
			t.Fatalf("record %d header mismatch: %+v", i, got)
		}
		if want.op == opPut {
			if got.meta.Object == nil || got.meta.Object.Name != want.meta.Object.Name {
				t.Fatalf("record %d object meta lost", i)
			}
			for k, ch := range want.chunks {
				if string(got.chunks[k]) != string(ch) {
					t.Fatalf("record %d chunk %d payload mismatch", i, k)
				}
			}
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestGoldenPutRecord pins the PJL1 record framing: testdata/golden/
// put_record.pjl is what encodeRecord produced at commit 729c0b6 for this
// four-chunk put. Today's decoder must read it back whole and today's encoder
// reproduce it byte for byte.
func TestGoldenPutRecord(t *testing.T) {
	pinned, err := os.ReadFile(filepath.Join("testdata", "golden", "put_record.pjl"))
	if err != nil {
		t.Fatal(err)
	}
	want := testPutRecord(7, "obj/golden", []byte("chunk-zero"), []byte{}, []byte("chunk-two, a little longer"), []byte{0, 1, 2, 0xff})
	rec, n, err := decodeRecord(pinned)
	if err != nil || n != len(pinned) {
		t.Fatalf("decode: consumed %d of %d bytes, %v", n, len(pinned), err)
	}
	if rec.op != opPut || rec.lsn != 7 || rec.meta.Object.Name != "obj/golden" || len(rec.chunks) != 4 {
		t.Fatalf("decoded record: %+v", rec)
	}
	for i, ch := range rec.chunks {
		if !bytes.Equal(ch, want.chunks[i]) {
			t.Fatalf("chunk %d: %q", i, ch)
		}
	}
	got, err := encodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Fatalf("re-encoded record differs from the pinned one:\n got %x\nwant %x", got, pinned)
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	valid, err := encodeRecord(testPutRecord(7, "x", []byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      valid[:6],
		"bad magic":  append([]byte("XXXX"), valid[4:]...),
		"truncated":  valid[:len(valid)-1],
		"no payload": valid[:12],
	}
	// Flip a payload byte: the CRC must catch it.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	cases["bitflip"] = flipped
	// Declare a huge payload length.
	big := append([]byte(nil), valid...)
	big[4], big[5], big[6], big[7] = 0xff, 0xff, 0xff, 0xff
	cases["huge length"] = big
	for name, b := range cases {
		if _, _, err := decodeRecord(b); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRecordRejectsBadSemantics(t *testing.T) {
	// A structurally sound record whose meta lies about the chunks.
	rec := testPutRecord(1, "x", []byte("data"))
	rec.meta.Object.Chunks[0].CRC++ // CRC disagrees with the payload
	b, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRecord(b); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("chunk CRC lie accepted: %v", err)
	}

	rec = testPutRecord(2, "x", []byte("data"))
	rec.meta.Object.Segment = "../../etc/passwd" // path traversal via segment
	b, err = encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRecord(b); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("traversal segment name accepted: %v", err)
	}

	rec = testPutRecord(3, "x", []byte("data"))
	rec.meta.Object.LSN = 99 // object LSN disagrees with record LSN
	b, err = encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRecord(b); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("LSN mismatch accepted: %v", err)
	}
}

func TestScanJournalStopsAtTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.pjl")
	var buf []byte
	for lsn := uint64(1); lsn <= 3; lsn++ {
		b, err := encodeRecord(testPutRecord(lsn, "x", []byte("payload")))
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	cleanLen := int64(len(buf))
	torn, err := encodeRecord(testPutRecord(4, "x", []byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, torn[:len(torn)/2]...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, validSize, total, err := scanJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || validSize != cleanLen || total != int64(len(buf)) {
		t.Fatalf("scan: %d recs, valid %d (want %d), total %d", len(recs), validSize, cleanLen, total)
	}

	// An LSN regression mid-file is corruption, not history.
	var regress []byte
	for _, lsn := range []uint64{5, 4} {
		b, err := encodeRecord(testPutRecord(lsn, "x", []byte("p")))
		if err != nil {
			t.Fatal(err)
		}
		regress = append(regress, b...)
	}
	if err := os.WriteFile(path, regress, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err = scanJournal(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("LSN regression: %d recs, %v", len(recs), err)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.pjl")
	j, err := openJournal(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()

	const writers = 16
	before := trace.GetCounter(trace.CtrStoreJournalFsyncs).Value()
	ends := make([]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		_, end, err := j.append(opDelete, recordMeta{Name: "x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ends[w] = end
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(end int64) {
			defer wg.Done()
			if err := j.commit(end); err != nil {
				t.Error(err)
			}
		}(ends[w])
	}
	wg.Wait()
	fsyncs := trace.GetCounter(trace.CtrStoreJournalFsyncs).Value() - before
	if fsyncs < 1 || fsyncs > writers {
		t.Fatalf("fsyncs %d outside [1, %d]", fsyncs, writers)
	}
	// The highest watermark committer flushed for everyone; at minimum the
	// final commit of the max offset must not have required `writers` syncs.
	if fsyncs == writers {
		t.Logf("no grouping observed (legal but unexpected): %d fsyncs", fsyncs)
	}

	// All records are on disk and scan back.
	recs, _, _, err := scanJournal(path)
	if err != nil || len(recs) != writers {
		t.Fatalf("scan after group commit: %d recs, %v", len(recs), err)
	}
}
