package huffman

import (
	"encoding/binary"

	"pressio/internal/bitstream"
	"pressio/internal/core"
)

// The decoder as of commit 9d26ea0, moved here under reference names with
// its logic unchanged: it expands the length table to one entry per alphabet
// symbol and reads the body through a bitstream.Reader. It is the oracle the
// run-sized tables and the register decode loop must agree with, symbol for
// symbol and refusal for refusal.

// decodeLengthsRef reads the table encodeLengths writes for an alphabet of n
// symbols, refusing any other size before allocating. The table comes from
// the scratch pool, and the caller returns it even with an error.
func decodeLengthsRef(b []byte, n uint64) ([]uint8, int, error) {
	declared, pos := binary.Uvarint(b)
	if pos <= 0 || declared != n {
		return nil, 0, ErrCorrupt
	}
	lengths := core.GetScratch[uint8](int(n))[:0]
	for uint64(len(lengths)) < n {
		if pos >= len(b) {
			return lengths, 0, ErrCorrupt
		}
		l := b[pos]
		pos++
		run, sz := binary.Uvarint(b[pos:])
		if sz <= 0 || run > maxAlphabet || uint64(len(lengths))+run > n {
			return lengths, 0, ErrCorrupt
		}
		pos += sz
		start := len(lengths)
		lengths = lengths[:start+int(run)]
		for i := range lengths[start:] {
			lengths[start+i] = l
		}
	}
	return lengths, pos, nil
}

// refTable is a length-indexed canonical decoding structure with a
// primary lookup table in front of it. A decoder keeps it on its stack and
// releases it when done: symsByLen comes from the scratch pool.
type refTable struct {
	maxLen    uint8
	firstCode [maxCodeLen + 2]uint64 // canonical first code per length (MSB-first value)
	offset    [maxCodeLen + 2]uint64 // index into symsByLen of first symbol per length; offset[maxLen+1] is their number
	symsByLen []uint32
	// lut maps the next lutBits stream bits to sym<<4|len for every code of
	// at most lutBits bits; 0 marks a longer (or unassigned) code. A symbol
	// is below maxAlphabet, 1<<28, so the entry holds it.
	lut [1 << lutBits]uint32
}

func (t *refTable) release() { core.PutScratch(t.symsByLen) }

// build fills the zero table t from code lengths.
func (t *refTable) build(lengths []uint8) error {
	count, first, maxLen, err := firstCodes(lengths)
	if err != nil {
		return err
	}
	t.maxLen, t.firstCode = maxLen, first
	total := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		t.offset[l] = total
		total += count[l]
	}
	t.offset[maxLen+1] = total
	var next [maxCodeLen + 1]uint64
	t.symsByLen = core.GetScratch[uint32](int(total))
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		t.symsByLen[t.offset[l]+next[l]] = uint32(s)
		if l <= lutBits {
			// The stream is LSB-first, so the reversed code is the low l
			// bits of the index and every setting of the bits above it
			// decodes to this symbol.
			for j := reverseBits(t.firstCode[l]+next[l], uint(l)); j < uint64(len(t.lut)); j += 1 << l {
				t.lut[j] = uint32(s)<<4 | uint32(l)
			}
		}
		next[l]++
	}
	return nil
}

// parseRef fills the zero table t from a stream's header and returns the
// declared symbol count, the alphabet and the body. An alphabet past bound
// is corrupt, refused before the tables are allocated. The caller releases t
// whatever parseRef returns.
func parseRef(data []byte, t *refTable, bound uint32) (count uint64, alphabet uint32, body []byte, err error) {
	hdrLen, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(sz)+hdrLen > uint64(len(data)) {
		return 0, 0, nil, ErrCorrupt
	}
	hdr := data[sz : sz+int(hdrLen)]
	body = data[sz+int(hdrLen):]
	alphabet64, o := binary.Uvarint(hdr)
	if o <= 0 || alphabet64 > uint64(min(bound, maxAlphabet)) {
		return 0, 0, nil, ErrCorrupt
	}
	hdr = hdr[o:]
	count, o = binary.Uvarint(hdr)
	if o <= 0 {
		return 0, 0, nil, ErrCorrupt
	}
	hdr = hdr[o:]
	lengths, _, err := decodeLengthsRef(hdr, alphabet64)
	defer core.PutScratch(lengths)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := t.build(lengths); err != nil {
		return 0, 0, nil, err
	}
	// Every symbol costs at least one bit, so the count cannot exceed the
	// body's bit length; and a table with no codes cannot decode anything.
	if count > uint64(len(body))*8 || count > 1<<32 || (count > 0 && t.maxLen == 0) {
		return 0, 0, nil, ErrCorrupt
	}
	return count, uint32(alphabet64), body, nil
}

// decodeRef is AppendDecode as of commit 9d26ea0, into a fresh slice.
func decodeRef(data []byte, bound uint32) ([]uint32, uint32, error) {
	var t refTable
	defer t.release()
	count, alphabet, body, err := parseRef(data, &t, bound)
	if err != nil {
		return nil, 0, err
	}
	out := make([]uint32, count)
	r := bitstream.NewReader(body)
	// The reader returns zero bits past the end, so a truncated body would
	// decode to plausible symbols: count what the codes consumed instead.
	used := uint64(0)
	for i := range out {
		if e := t.lut[r.Peek(lutBits)&lutMask]; e != 0 {
			l := uint(e & 0xf)
			r.Skip(l)
			used += uint64(l)
			out[i] = e >> 4
			continue
		}
		sym, l, err := t.long(r)
		if err != nil {
			return nil, 0, err
		}
		used += uint64(l)
		out[i] = sym
	}
	if used > 8*uint64(len(body)) {
		return nil, 0, ErrCorrupt
	}
	return out, alphabet, nil
}

// long decodes one symbol whose code the lut does not hold, returning it
// with its code length. One peek gives the next maxLen bits, reversed so the
// first is the most significant; its top l bits are the candidate code of
// length l, tried from lutBits+1 up against the canonical first codes, and
// the length that fits is skipped. The bit-serial walk in huffman_test.go is
// the reference it is tested against.
func (t *refTable) long(r *bitstream.Reader) (uint32, uint8, error) {
	v := reverseBits(r.Peek(uint(t.maxLen)), uint(t.maxLen))
	for l := uint8(lutBits + 1); l <= t.maxLen; l++ {
		if d := v>>(t.maxLen-l) - t.firstCode[l]; d < t.offset[l+1]-t.offset[l] {
			if idx := t.offset[l] + d; idx < uint64(len(t.symsByLen)) {
				r.Skip(uint(l))
				return t.symsByLen[idx], l, nil
			}
			break
		}
	}
	return 0, 0, ErrCorrupt
}
