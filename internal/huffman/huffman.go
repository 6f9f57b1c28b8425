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
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pressio/internal/bitstream"
)

// ErrCorrupt reports a malformed huffman stream.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// maxCodeLen bounds canonical code lengths; counts are scaled if a longer
// code would be produced (cannot happen for < 2^32 total count but guards
// adversarial inputs).
const maxCodeLen = 57

// maxAlphabet bounds the symbol alphabet on both sides of the codec: the
// decoder refuses larger length tables, so the encoder refuses to emit
// streams it could never read back.
const maxAlphabet = 1 << 28

// buildLengths computes Huffman code lengths from symbol frequencies using
// the standard two-queue method over sorted leaf weights.
func buildLengths(freq []uint64) []uint8 {
	lengths := make([]uint8, len(freq))
	// The leaves come first in nodes, in order's order: node i < len(order)
	// is the leaf of symbol order[i].
	type node struct {
		weight      uint64
		left, right int32 // indices into nodes
	}
	used := 0
	for _, f := range freq {
		if f > 0 {
			used++
		}
	}
	// A Huffman tree over k leaves has exactly 2k-1 nodes.
	nodes := make([]node, 0, 2*used)
	order := make([]int32, 0, used)
	for s, f := range freq {
		if f > 0 {
			order = append(order, int32(s))
		}
	}
	switch len(order) {
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
	for _, s := range order {
		nodes = append(nodes, node{weight: freq[s]})
	}
	// Two-queue merge: leaves (already sorted) and internal nodes (created
	// in nondecreasing weight order).
	leafQ := 0
	internal := make([]int32, 0, len(order))
	intQ := 0
	pop := func() int32 {
		if leafQ < len(order) && (intQ >= len(internal) || nodes[leafQ].weight <= nodes[internal[intQ]].weight) {
			leafQ++
			return int32(leafQ - 1)
		}
		intQ++
		return internal[intQ-1]
	}
	remaining := len(order)
	for remaining > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b})
		internal = append(internal, int32(len(nodes)-1))
		remaining--
	}
	// Depth-first assign lengths. The stack holds one pending sibling per
	// level below the root, so it stays as short as the longest code.
	root := internal[len(internal)-1]
	type item struct {
		idx   int32
		depth uint8
	}
	stack := make([]item, 0, maxCodeLen+1)
	stack = append(stack, item{root, 0})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(it.idx) < len(order) {
			lengths[order[it.idx]] = max(it.depth, 1)
			continue
		}
		nd := nodes[it.idx]
		stack = append(stack, item{nd.left, it.depth + 1}, item{nd.right, it.depth + 1})
	}
	return lengths
}

// canonicalCodes assigns canonical codes (numerically increasing with
// length, then symbol) from code lengths. Codes are returned bit-reversed so
// they can be emitted LSB-first. They are written into codes, which has an
// entry for each of lengths; entries without a code are left as they are.
func canonicalCodes(lengths []uint8, codes []uint64) ([]uint64, error) {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen == 0 {
		return codes, nil
	}
	if maxLen > maxCodeLen {
		return nil, fmt.Errorf("%w: code length %d exceeds %d", ErrCorrupt, maxLen, maxCodeLen)
	}
	countByLen := make([]uint64, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			countByLen[l]++
		}
	}
	firstCode := make([]uint64, maxLen+2)
	code := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + countByLen[l-1]) << 1
		firstCode[l] = code
	}
	// Kraft check to reject invalid length tables early.
	kraft := uint64(0)
	for l := uint8(1); l <= maxLen; l++ {
		kraft += countByLen[l] << (maxLen - l)
	}
	if kraft > 1<<maxLen {
		return nil, fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
	}
	next := append([]uint64(nil), firstCode...)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		codes[s] = reverseBits(next[l], uint(l))
		next[l]++
	}
	return codes, nil
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
// table over the whole alphabet gives.
//
//pressio:hotpath measured by the benchmark's huffman.* per-layer rows
func Encode(symbols []uint32, alphabet uint32) ([]byte, error) {
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
	freq := make([]uint64, hi-base+1)
	for _, s := range symbols {
		freq[slot(s, base)]++
	}
	lengths := buildLengths(freq)
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
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(alphabet))
	hdr = binary.AppendUvarint(hdr, uint64(len(symbols)))
	hdr = append(hdr, encodeLengths(alphabet, base, lengths)...)
	bodyLen := int((bodyBits + 7) / 8)
	out := make([]byte, 0, binary.MaxVarintLen64+len(hdr)+bodyLen)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	packBody(out[len(out):len(out)+bodyLen], symbols, codes, base)
	return out[:len(out)+bodyLen], nil
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
// the slots are the whole table.
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
	out := make([]byte, 0, (1+runs)*(1+binary.MaxVarintLen32))
	out = binary.AppendUvarint(out, uint64(n))
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

func decodeLengths(b []byte) ([]uint8, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > maxAlphabet {
		return nil, 0, ErrCorrupt
	}
	pos := sz
	lengths := make([]uint8, 0, n)
	for uint64(len(lengths)) < n {
		if pos >= len(b) {
			return nil, 0, ErrCorrupt
		}
		l := b[pos]
		pos++
		run, sz := binary.Uvarint(b[pos:])
		if sz <= 0 || run > maxAlphabet || uint64(len(lengths))+run > n {
			return nil, 0, ErrCorrupt
		}
		pos += sz
		for k := uint64(0); k < run; k++ {
			lengths = append(lengths, l)
		}
	}
	return lengths, pos, nil
}

// lutBits is the width of the primary decode table: codes up to this long
// decode with one lookup, longer ones fall back to the canonical walk.
const (
	lutBits = 11
	lutMask = 1<<lutBits - 1
)

// decodeTable is a length-indexed canonical decoding structure with a
// primary lookup table in front of it.
type decodeTable struct {
	maxLen    uint8
	firstCode []uint64 // canonical first code per length (MSB-first value)
	offset    []uint64 // index into symsByLen of first symbol per length
	symsByLen []uint32
	// lut maps the next lutBits stream bits to sym<<8|len for every code of
	// at most lutBits bits; 0 marks a longer (or unassigned) code.
	lut [1 << lutBits]uint32
}

func buildDecodeTable(lengths []uint8) (*decodeTable, error) {
	// Validate every length into a fresh table: codeLens elements are
	// proven <= maxCodeLen here, so they can index the per-length arrays.
	codeLens := make([]uint8, len(lengths))
	maxLen := uint8(0)
	for i, l := range lengths {
		if l > maxCodeLen {
			return nil, ErrCorrupt
		}
		codeLens[i] = l
		if l > maxLen {
			maxLen = l
		}
	}
	countByLen := make([]uint64, maxLen+1)
	for _, l := range codeLens {
		if l > 0 {
			countByLen[l]++
		}
	}
	t := &decodeTable{maxLen: maxLen,
		firstCode: make([]uint64, maxLen+2),
		offset:    make([]uint64, maxLen+2)}
	code := uint64(0)
	total := uint64(0)
	free := uint64(1) // unassigned code points at length l; at most 1<<maxLen
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + countByLen[l-1]) << 1
		t.firstCode[l] = code
		t.offset[l] = total
		total += countByLen[l]
		// Kraft: an over-subscribed table has codes that do not fit their
		// length, and the lookup-table fill below would overwrite slots.
		free <<= 1
		if countByLen[l] > free {
			return nil, fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
		free -= countByLen[l]
	}
	t.symsByLen = make([]uint32, total)
	next := make([]uint64, maxLen+1)
	for s, l := range codeLens {
		if l == 0 {
			continue
		}
		t.symsByLen[t.offset[l]+next[l]] = uint32(s)
		// sym<<8 must fit the entry; sz alphabets stay below 1<<24.
		if l <= lutBits && s < 1<<24 {
			// The stream is LSB-first, so the reversed code is the low l
			// bits of the index and every setting of the bits above it
			// decodes to this symbol.
			for j := reverseBits(t.firstCode[l]+next[l], uint(l)); j < uint64(len(t.lut)); j += 1 << l {
				t.lut[j] = uint32(s)<<8 | uint32(l)
			}
		}
		next[l]++
	}
	return t, nil
}

// parse splits a stream into its decode table, declared symbol count,
// alphabet and body.
func parse(data []byte) (t *decodeTable, count uint64, alphabet uint32, body []byte, err error) {
	hdrLen, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(sz)+hdrLen > uint64(len(data)) {
		return nil, 0, 0, nil, ErrCorrupt
	}
	hdr := data[sz : sz+int(hdrLen)]
	body = data[sz+int(hdrLen):]
	alphabet64, o := binary.Uvarint(hdr)
	if o <= 0 || alphabet64 > maxAlphabet {
		return nil, 0, 0, nil, ErrCorrupt
	}
	hdr = hdr[o:]
	count, o = binary.Uvarint(hdr)
	if o <= 0 {
		return nil, 0, 0, nil, ErrCorrupt
	}
	hdr = hdr[o:]
	lengths, _, err := decodeLengths(hdr)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if uint64(len(lengths)) != alphabet64 {
		return nil, 0, 0, nil, ErrCorrupt
	}
	t, err = buildDecodeTable(lengths)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	// Every symbol costs at least one bit, so the count cannot exceed the
	// body's bit length; and a table with no codes cannot decode anything.
	if count > uint64(len(body))*8 || count > 1<<32 || (count > 0 && t.maxLen == 0) {
		return nil, 0, 0, nil, ErrCorrupt
	}
	return t, count, uint32(alphabet64), body, nil
}

// Decode reverses Encode. It returns the symbol stream and the alphabet
// size recorded in the header.
//
//pressio:hotpath measured by the benchmark's huffman.* per-layer rows
func Decode(data []byte) ([]uint32, uint32, error) {
	t, count, alphabet, body, err := parse(data)
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
			l := uint(e & 0xff)
			r.Skip(l)
			used += uint64(l)
			out[i] = e >> 8
			continue
		}
		sym, l, err := t.walk(r)
		if err != nil {
			return nil, 0, err
		}
		used += uint64(l)
		out[i] = sym
	}
	if used > 8*uint64(len(body)) {
		return nil, 0, fmt.Errorf("%w: body ends %d bits short", ErrCorrupt, used-8*uint64(len(body)))
	}
	return out, alphabet, nil
}

// walk decodes one symbol bit by bit against the canonical first-code
// table, returning it with its code length. It is the whole decoder for
// codes longer than lutBits and the reference the table is tested against.
func (t *decodeTable) walk(r *bitstream.Reader) (uint32, uint8, error) {
	code := uint64(0)
	for l := uint8(1); l <= t.maxLen; l++ {
		code = code<<1 | uint64(r.ReadBit())
		count := t.offset[l+1] - t.offset[l]
		if l == t.maxLen {
			count = uint64(len(t.symsByLen)) - t.offset[l]
		}
		if count > 0 && code >= t.firstCode[l] && code-t.firstCode[l] < count {
			idx := t.offset[l] + (code - t.firstCode[l])
			if idx < uint64(len(t.symsByLen)) {
				return t.symsByLen[idx], l, nil
			}
			return 0, 0, ErrCorrupt
		}
	}
	return 0, 0, ErrCorrupt
}
