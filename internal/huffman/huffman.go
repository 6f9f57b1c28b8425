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
	if err = kraft(&count, &first, maxLen); err != nil {
		return count, first, 0, err
	}
	return count, first, maxLen, nil
}

// kraft sets first to the canonical first code of each length up to maxLen
// (MSB-first) given the count of codes of each, zeroing count[0]. It
// refuses an over-subscribed table.
func kraft(count, first *[maxCodeLen + 2]uint64, maxLen uint8) error {
	count[0] = 0
	code, free := uint64(0), uint64(1) // free: unassigned code points at length l
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		first[l] = code
		if free <<= 1; count[l] > free {
			return fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
		free -= count[l]
	}
	return nil
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

// lutBits is the width of the primary decode table: codes up to this long
// decode with one lookup, longer ones by decodeTable.long.
const (
	lutBits = 11
	lutMask = 1<<lutBits - 1
)

// decodeTable is a canonical decoding structure sized by the runs of the
// length table, never by the alphabet. A decoder keeps it on its stack and
// releases it when done: runs comes from the scratch pool.
type decodeTable struct {
	maxLen    uint8
	firstCode [maxCodeLen + 2]uint64 // canonical first code per length (MSB-first value)
	count     [maxCodeLen + 2]uint64 // codes per length
	limit     [maxCodeLen + 1]uint64 // end of each length's codes, left-justified to maxLen bits
	// runs[runAt[l]:runAt[l+1]] are the entries of length l > lutBits: index<<32
	// | symbol of a code, its index among the codes of length l. There is one
	// entry per code when the long codes are no more than the lut's entries,
	// and else one per run, for its first code.
	runAt [maxCodeLen + 2]uint32
	runs  []uint64
	// lut maps the next lutBits stream bits to sym<<8|len for a code of at
	// most lutBits bits, 0 for any other; len is the shift that drops it.
	lut [1 << lutBits]uint64
}

func (t *decodeTable) release() { core.PutScratch(t.runs) }

// build fills the zero table t from the length table encodeLengths writes
// for n symbols, in two passes over its runs. The first counts the codes of
// each length, refusing a size other than n, a run past it, a length past
// maxCodeLen or an over-subscribed code. That leaves at most 1<<lutBits codes
// for the lookup table, which the second pass fills code by code, and it
// keeps at most 1<<lutBits entries for the long codes, or one per run.
func (t *decodeTable) build(b []byte, n uint64) error {
	declared, pos := binary.Uvarint(b)
	if pos <= 0 || declared != n {
		return ErrCorrupt
	}
	long := uint64(0) // codes longer than lutBits
	for p, sym := pos, uint64(0); sym < n; {
		k, sz := binary.Uvarint(b[min(p+1, len(b)):])
		if p >= len(b) || sz <= 0 || k > maxAlphabet || sym+k > n || (k > 0 && b[p] > maxCodeLen) {
			return ErrCorrupt
		}
		l := b[p]
		if p, sym = p+1+sz, sym+k; k == 0 || l == 0 {
			continue
		}
		t.count[l], t.maxLen = t.count[l]+k, max(t.maxLen, l)
		if l > lutBits {
			t.runAt[l+1], long = t.runAt[l+1]+1, long+k // to be summed over lengths
		}
	}
	if err := kraft(&t.count, &t.firstCode, t.maxLen); err != nil {
		return err
	}
	perCode := long <= 1<<lutBits
	for l := uint8(1); l <= t.maxLen; l++ {
		t.limit[l] = (t.firstCode[l] + t.count[l]) << (t.maxLen - l)
		if perCode && l > lutBits {
			t.runAt[l+1] = uint32(t.count[l])
		}
		t.runAt[l+1] += t.runAt[l]
	}
	t.runs = core.GetScratch[uint64](int(t.runAt[t.maxLen+1]))
	at, next := t.runAt, [maxCodeLen + 1]uint64{}
	for p, end := pos, uint64(0); end < n; {
		l, sym := b[p], end
		k, sz := binary.Uvarint(b[p+1:])
		p, end = p+1+sz, end+k
		switch {
		case k == 0 || l == 0:
		case l > lutBits:
			for s := sym; s < end && (s == sym || perCode); s++ {
				t.runs[at[l]], at[l] = (next[l]+s-sym)<<32|s, at[l]+1
			}
			next[l] += k
		default:
			for s := sym; s < end; s++ {
				// The stream is LSB-first: the reversed code is the low l bits
				// of the index, and any bits above it decode to this symbol.
				for j := reverseBits(t.firstCode[l]+next[l], uint(l)); j < uint64(len(t.lut)); j += 1 << l {
					t.lut[j] = s<<8 | uint64(l)
				}
				next[l]++
			}
		}
	}
	return nil
}

// parse fills the zero table t from a stream's header and returns the
// declared symbol count, the alphabet and the body. An alphabet past bound
// is corrupt, refused before the tables are built. The caller releases t
// whatever parse returns.
func parse(data []byte, t *decodeTable, bound uint32) (count uint64, alphabet uint32, body []byte, err error) {
	hdrLen, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(sz)+hdrLen > uint64(len(data)) {
		return 0, 0, nil, ErrCorrupt
	}
	hdr, body := data[sz:sz+int(hdrLen)], data[sz+int(hdrLen):]
	alphabet64, o := binary.Uvarint(hdr)
	count, oc := binary.Uvarint(hdr[max(o, 0):])
	if o <= 0 || oc <= 0 || alphabet64 > uint64(min(bound, maxAlphabet)) {
		return 0, 0, nil, ErrCorrupt
	}
	if err := t.build(hdr[o+oc:], alphabet64); err != nil {
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
	if err := t.decode(dst[start:], body); err != nil {
		return nil, 0, err
	}
	return dst, alphabet, nil
}

// decode fills out from body. The bit position lives in a local: each step
// loads the 8 bytes at used>>3, whose top 57 bits past used&7 hold up to
// four codes of the lookup table (4 × lutBits = 44 bits) or one long code (at
// most maxCodeLen = 57). The last bytes load through a zero-padded copy.
func (t *decodeTable) decode(out []uint32, body []byte) error {
	lut, used := &t.lut, uint64(0)
	for i := 0; i < len(out); {
		var w uint64
		if p := used >> 3; p+8 <= uint64(len(body)) {
			w = binary.LittleEndian.Uint64(body[p:])
		} else {
			var pad [8]byte
			copy(pad[:], body[min(p, uint64(len(body))):])
			w = binary.LittleEndian.Uint64(pad[:])
		}
		w >>= used & 7
		// An entry's low byte is its length, the shift that drops its code
		// from w. A long code, or one of the last three, takes a load alone;
		// a code the table does not hold ends the load.
		e := lut[w&lutMask]
		if e == 0 || i+4 > len(out) {
			if e == 0 {
				if e = t.long(w); e == 0 {
					return ErrCorrupt
				}
			}
			out[i], used, i = uint32(e>>8), used+e&0xff, i+1
			continue
		}
		o := out[i : i+4 : i+4]
		used, w, o[0] = used+e&0xff, w>>(e&63), uint32(e>>8)
		if e = lut[w&lutMask]; e == 0 {
			i++
			continue
		}
		used, w, o[1] = used+e&0xff, w>>(e&63), uint32(e>>8)
		if e = lut[w&lutMask]; e == 0 {
			i += 2
			continue
		}
		used, w, o[2] = used+e&0xff, w>>(e&63), uint32(e>>8)
		if e = lut[w&lutMask]; e == 0 {
			i += 3
			continue
		}
		used, i, o[3] = used+e&0xff, i+4, uint32(e>>8)
	}
	// Bits past the end read as zero: a truncated body shows in the count.
	if used > 8*uint64(len(body)) {
		return fmt.Errorf("%w: body ends %d bits short", ErrCorrupt, used-8*uint64(len(body)))
	}
	return nil
}

// long decodes the code the lut does not hold atop w, the next stream bits,
// into an entry as the lut's, or 0 if no code fits. Canonical codes sort by
// value left-justified, so the length of the code atop v, w's low maxLen bits
// reversed, is the least l past lutBits whose codes end past v: counted
// without a branch. Its symbol is entry d of that length when each code has
// one, and else is searched for among the runs.
func (t *decodeTable) long(w uint64) uint64 {
	if t.maxLen <= lutBits {
		return 0
	}
	v := reverseBits(w, uint(t.maxLen))
	l := uint8(lutBits + 1)
	for _, lim := range t.limit[lutBits+1 : t.maxLen] {
		l += uint8((lim - 1 - v) >> 63) // v >= lim: v's code is longer
	}
	d := v>>(t.maxLen-l) - t.firstCode[l]
	if d >= t.count[l] {
		return 0
	}
	// The last entry whose index is at most d holds it; the first has index
	// 0, so there is one.
	runs, j := t.runs[t.runAt[l]:t.runAt[l+1]], int(d)+1
	if uint64(len(runs)) != t.count[l] {
		j, _ = slices.BinarySearch(runs, (d+1)<<32)
	}
	r := runs[j-1]
	return (uint64(uint32(r))+d-r>>32)<<8 | uint64(l)
}
