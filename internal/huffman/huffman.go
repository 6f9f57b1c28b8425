// Package huffman implements a canonical Huffman entropy coder over dense
// unsigned integer alphabets. It is the encoding stage of the sz compressor
// plugins (quantization-code streams); nothing else imports it and it is not
// registered as a plugin of its own.
//
// The encoded form is self-contained: a header carries the alphabet size
// and the canonical code lengths, so decoding needs no side channel. Both
// directions size their work by the symbols that occur, not by the alphabet:
// sz declares 65 536 symbols and a smooth field uses a few hundred.
package huffman

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pressio/internal/bitstream"
	"pressio/internal/core"
)

// ErrCorrupt reports a malformed huffman stream.
var ErrCorrupt = fmt.Errorf("huffman: %w", core.ErrCorrupt)

// maxCodeLen bounds canonical code lengths; counts are scaled if a longer
// code would be produced (cannot happen for < 2^32 total count but guards
// adversarial inputs).
const maxCodeLen = 57

// maxAlphabet bounds the symbol alphabet on both sides of the codec: the
// decoder refuses larger length tables, so the encoder refuses to emit
// streams it could never read back.
const maxAlphabet = 1 << 28

// buildLengths computes Huffman code lengths from symbol frequencies using
// the standard two-queue method over sorted leaf weights. The table comes
// from the scratch pool; the caller returns it.
func buildLengths(freq []uint64) []uint8 {
	lengths := core.GetScratch[uint8](len(freq))
	clear(lengths)
	used := 0
	for _, f := range freq {
		if f > 0 {
			used++
		}
	}
	order := core.GetScratch[int32](used)
	defer core.PutScratch(order)
	k := 0
	for s, f := range freq {
		if f > 0 {
			order[k] = int32(s)
			k++
		}
	}
	switch used {
	case 0:
		return lengths
	case 1:
		lengths[order[0]] = 1
		return lengths
	}
	// sort.Slice and slices.SortFunc are one pdqsort, generated from one
	// template: equal weights end up in the same order, and the code lengths
	// with them, without sort.Slice's reflective swaps.
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(freq[a], freq[b]) })
	// A Huffman tree over k leaves has exactly 2k-1 nodes. The leaves come
	// first, in order's order: node i < used is the leaf of symbol order[i].
	// Internal node used+j is the j-th made, and kids[2j:2j+2] its children.
	weight := core.GetScratch[uint64](2*used - 1)
	defer core.PutScratch(weight)
	kids := core.GetScratch[int32](2 * (used - 1))
	defer core.PutScratch(kids)
	for i, s := range order {
		weight[i] = freq[s]
	}
	// Two-queue merge: leaves (already sorted) and internal nodes (made in
	// nondecreasing weight order, so the made ones queue in index order).
	leafQ, intQ, made := 0, used, used
	pop := func() int32 {
		if leafQ < used && (intQ >= made || weight[leafQ] <= weight[intQ]) {
			leafQ++
			return int32(leafQ - 1)
		}
		intQ++
		return int32(intQ - 1)
	}
	for j := 0; j < used-1; j++ {
		a := pop()
		b := pop()
		weight[made] = weight[a] + weight[b]
		kids[2*j], kids[2*j+1] = a, b
		made++
	}
	// Depth-first assign lengths. The stack holds one pending sibling per
	// level below the root, so it stays as short as the longest code.
	root := int32(made - 1)
	type item struct {
		idx   int32
		depth uint8
	}
	stack := make([]item, 0, maxCodeLen+1)
	stack = append(stack, item{root, 0})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(it.idx) < used {
			lengths[order[it.idx]] = max(it.depth, 1)
			continue
		}
		j := int(it.idx) - used
		stack = append(stack, item{kids[2*j], it.depth + 1}, item{kids[2*j+1], it.depth + 1})
	}
	return lengths
}

// canonicalCodes assigns canonical codes (numerically increasing with
// length, then symbol) from code lengths. Codes are returned bit-reversed so
// they can be emitted LSB-first. They are written into codes, which has an
// entry for each of lengths; entries without a code are left as they are.
func canonicalCodes(lengths []uint8, codes []uint64) ([]uint64, error) {
	_, next, _, err := firstCodes(lengths)
	if err != nil {
		return nil, err
	}
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		codes[s] = reverseBits(next[l], uint(l))
		next[l]++
	}
	return codes, nil
}

// firstCodes counts the codes of each length and returns those counts, the
// canonical first code of each length (MSB-first) and the longest length.
// It refuses a length past maxCodeLen, and an over-subscribed table, whose
// codes do not fit their lengths.
func firstCodes(lengths []uint8) (count, first [maxCodeLen + 2]uint64, maxLen uint8, err error) {
	for _, l := range lengths {
		if l > maxCodeLen {
			return count, first, 0, fmt.Errorf("%w: code length %d exceeds %d", ErrCorrupt, l, maxCodeLen)
		}
		maxLen = max(maxLen, l)
		count[l]++
	}
	count[0] = 0
	code, free := uint64(0), uint64(1) // free: unassigned code points at length l
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		first[l] = code
		if free <<= 1; count[l] > free {
			return count, first, 0, fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
		free -= count[l]
	}
	return count, first, maxLen, nil
}

// reverseBits returns the low n bits of v in reverse order.
func reverseBits(v uint64, n uint) uint64 { return bits.Reverse64(v) >> (64 - n) }

// Entries of Encode's code table hold a symbol's code above its length:
// code<<lenBits | length. Codes are at most maxCodeLen bits, so both fit.
const (
	lenBits = 6
	lenMask = 1<<lenBits - 1
)

// Encode compresses the symbol stream. alphabet is the exclusive upper bound
// on symbol values; callers typically pass maxSymbol+1.
//
// Its tables are sized by the symbols that occur, not by the alphabet. Slot 0
// counts symbol 0, sz's outlier code, far below the rest; slot i > 0 counts
// symbol base+i, where base+1 is the smallest nonzero symbol. The slots are
// in symbol order, so the code lengths and canonical codes are the ones a
// table over the whole alphabet gives. The tables are scratch; the stream
// is the one allocation.
//
//pressio:hotpath measured by the benchmark's huffman.* per-layer rows
func Encode(symbols []uint32, alphabet uint32) ([]byte, error) {
	return AppendEncode(nil, symbols, alphabet)
}

// AppendEncode is Encode appending the stream to dst, which grows only when
// its capacity cannot hold the stream.
func AppendEncode(dst []byte, symbols []uint32, alphabet uint32) ([]byte, error) {
	if alphabet > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds %d", alphabet, uint32(maxAlphabet))
	}
	// s-1 wraps for s = 0, so symbol 0 does not pull base down to it.
	base, hi := uint32(math.MaxUint32), uint32(0)
	for _, s := range symbols {
		base = min(base, s-1)
		hi = max(hi, s)
	}
	if len(symbols) > 0 && hi >= alphabet {
		return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", hi, alphabet)
	}
	if hi == 0 {
		base = 0 // no symbol but 0: slot 0 alone
	}
	freq := core.GetScratch[uint64](int(hi - base + 1))
	defer core.PutScratch(freq)
	clear(freq)
	for _, s := range symbols {
		freq[slot(s, base)]++
	}
	lengths := buildLengths(freq)
	defer core.PutScratch(lengths)
	// The body's size is known before a bit is written; and once the lengths
	// exist the counts are dead, so the entries take their place.
	bodyBits := uint64(0)
	for i, l := range lengths {
		bodyBits += freq[i] * uint64(l)
	}
	codes, err := canonicalCodes(lengths, freq)
	if err != nil {
		return nil, err
	}
	for i, l := range lengths {
		codes[i] = codes[i]<<lenBits | uint64(l)
	}
	var counts [2 * binary.MaxVarintLen64]byte
	sizes := binary.AppendUvarint(binary.AppendUvarint(counts[:0], uint64(alphabet)), uint64(len(symbols)))
	table := encodeLengths(alphabet, base, lengths)
	defer core.PutScratch(table)
	hdrLen := len(sizes) + len(table)
	bodyLen := int((bodyBits + 7) / 8)
	dst = slices.Grow(dst, binary.MaxVarintLen64+hdrLen+bodyLen)
	dst = binary.AppendUvarint(dst, uint64(hdrLen))
	dst = append(append(dst, sizes...), table...)
	packBody(dst[len(dst):len(dst)+bodyLen], symbols, codes, base)
	return dst[:len(dst)+bodyLen], nil
}

// slot is the table slot of symbol s: s-base for s > base, and 0 for s = 0.
// The mask is all ones unless s is 0 (s|-s has its top bit set for any other
// s), which keeps the choice free of a branch that outliers would mispredict.
func slot(s, base uint32) uint32 { return (s - base) & uint32(int32(s|-s)>>31) }

// packBody writes the codes of symbols into body LSB-first, as
// bitstream.Writer packs them: whole 64-bit words while they fill, then the
// bytes of the last partial one. body holds exactly the bits the codes take.
func packBody(body []byte, symbols []uint32, codes []uint64, base uint32) {
	var acc uint64
	var nacc uint
	for _, s := range symbols {
		e := codes[slot(s, base)]
		l, c := uint(e&lenMask), e>>lenBits
		// nacc < 64 and l-nacc is in [1, 63] after a flush; the masks say so
		// to the compiler, which then drops its guard for wide shifts.
		acc |= c << (nacc & 63)
		nacc += l
		if nacc >= 64 {
			binary.LittleEndian.PutUint64(body, acc)
			body = body[8:]
			// The l-nacc low bits of c went into the word just written.
			nacc -= 64
			acc = c >> ((l - nacc) & 63)
		}
	}
	for i := range body {
		body[i] = byte(acc >> (8 * i))
	}
}

// MaxEncodedLen bounds len(Encode(symbols, alphabet)) for n symbols: the
// framing, a length table of at most two runs per distinct symbol (one
// starting at it, one after it) and maxCodeLen bits per symbol. A decoder
// holding a declared count uses it to refuse a declared length before
// reading a byte of the body.
func MaxEncodedLen(n uint64, alphabet uint32) uint64 {
	runs := 2*min(n, uint64(alphabet)) + 1
	table := binary.MaxVarintLen32 + runs*(1+binary.MaxVarintLen32)
	return 3*binary.MaxVarintLen64 + table + (n*maxCodeLen+7)/8 + 8
}

// encodeLengths run-length encodes the code length table of an alphabet of
// n symbols as pairs of (length byte, uvarint run). The table is given as
// Encode's slots: lengths[0] is symbol 0's, lengths[i] for i > 0 is symbol
// base+i's, and every other symbol's is 0. With base 0 and n = len(lengths)
// the slots are the whole table. The encoding is scratch; the caller
// returns it.
func encodeLengths(n, base uint32, lengths []uint8) []byte {
	// Sized by the runs, which follow the slots, not by the table: one per
	// change of length within lengths[1:], and at most four more (symbol 0's,
	// the zeros below and above the slots, and the first of lengths[1:]).
	runs := 4
	for i := 2; i < len(lengths); i++ {
		if lengths[i] != lengths[i-1] {
			runs++
		}
	}
	out := core.GetScratch[byte]((1 + runs) * (1 + binary.MaxVarintLen32))
	out = binary.AppendUvarint(out[:0], uint64(n))
	cur, run := uint8(0), uint64(0)
	put := func(l uint8, k uint64) {
		if k == 0 {
			return
		}
		if run > 0 && l != cur {
			out = append(out, cur)
			out = binary.AppendUvarint(out, run)
			run = 0
		}
		cur, run = l, run+k
	}
	if n > 0 {
		put(lengths[0], 1)
		put(0, uint64(base))
		for _, l := range lengths[1:] {
			put(l, 1)
		}
		put(0, uint64(n-base)-uint64(len(lengths)))
	}
	if run > 0 {
		out = append(out, cur)
		out = binary.AppendUvarint(out, run)
	}
	return out
}

// decodeLengths reads the table encodeLengths writes for an alphabet of n
// symbols, refusing any other size before allocating. The table comes from
// the scratch pool, and the caller returns it even with an error.
func decodeLengths(b []byte, n uint64) ([]uint8, int, error) {
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

// lutBits is the width of the primary decode table: codes up to this long
// decode with one lookup, longer ones with one peek of maxLen bits scanned
// length by length against the canonical first codes (decodeTable.long).
const (
	lutBits = 11
	lutMask = 1<<lutBits - 1
)

// decodeTable is a length-indexed canonical decoding structure with a
// primary lookup table in front of it. A decoder keeps it on its stack and
// releases it when done: symsByLen comes from the scratch pool.
type decodeTable struct {
	maxLen    uint8
	firstCode [maxCodeLen + 2]uint64 // canonical first code per length (MSB-first value)
	offset    [maxCodeLen + 2]uint64 // index into symsByLen of first symbol per length; offset[maxLen+1] is their number
	symsByLen []uint32
	// lut maps the next lutBits stream bits to sym<<4|len for every code of
	// at most lutBits bits; 0 marks a longer (or unassigned) code. A symbol
	// is below maxAlphabet, 1<<28, so the entry holds it.
	lut [1 << lutBits]uint32
}

func (t *decodeTable) release() { core.PutScratch(t.symsByLen) }

// build fills the zero table t from code lengths.
func (t *decodeTable) build(lengths []uint8) error {
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

// parse fills the zero table t from a stream's header and returns the
// declared symbol count, the alphabet and the body. An alphabet past bound
// is corrupt, refused before the tables are allocated. The caller releases t
// whatever parse returns.
func parse(data []byte, t *decodeTable, bound uint32) (count uint64, alphabet uint32, body []byte, err error) {
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
	lengths, _, err := decodeLengths(hdr, alphabet64)
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

// Decode reverses Encode. It returns the symbol stream and the alphabet
// size recorded in the header.
//
//pressio:hotpath measured by the benchmark's huffman.* per-layer rows
func Decode(data []byte) ([]uint32, uint32, error) { return AppendDecode(nil, data, maxAlphabet) }

// AppendDecode is Decode appending the symbols to dst: a caller that knows
// the count gives dst that capacity, and they land in it without growth. A
// stream declaring an alphabet past bound, the caller's own, is corrupt: its
// header cannot size the tables past what the caller would encode.
func AppendDecode(dst []uint32, data []byte, bound uint32) ([]uint32, uint32, error) {
	var t decodeTable
	defer t.release()
	count, alphabet, body, err := parse(data, &t, bound)
	if err != nil {
		return nil, 0, err
	}
	start := len(dst)
	dst = slices.Grow(dst, int(count))[:start+int(count)]
	out := dst[start:]
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
		return nil, 0, fmt.Errorf("%w: body ends %d bits short", ErrCorrupt, used-8*uint64(len(body)))
	}
	return dst, alphabet, nil
}

// long decodes one symbol whose code the lut does not hold, returning it
// with its code length. One peek gives the next maxLen bits, reversed so the
// first is the most significant; its top l bits are the candidate code of
// length l, tried from lutBits+1 up against the canonical first codes, and
// the length that fits is skipped. The bit-serial walk in huffman_test.go is
// the reference it is tested against.
func (t *decodeTable) long(r *bitstream.Reader) (uint32, uint8, error) {
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
