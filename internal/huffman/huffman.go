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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
	type node struct {
		weight      uint64
		left, right int32 // indices into nodes; -1 for leaves
		sym         int32
	}
	used := 0
	for _, f := range freq {
		if f > 0 {
			used++
		}
	}
	// A Huffman tree over k leaves has exactly 2k-1 nodes.
	nodes := make([]node, 0, 2*used)
	order := make([]int, 0, used)
	for s, f := range freq {
		if f > 0 {
			order = append(order, s)
		}
	}
	switch len(order) {
	case 0:
		return lengths
	case 1:
		lengths[order[0]] = 1
		return lengths
	}
	sort.Slice(order, func(i, j int) bool { return freq[order[i]] < freq[order[j]] })
	for _, s := range order {
		nodes = append(nodes, node{weight: freq[s], left: -1, right: -1, sym: int32(s)})
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
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b, sym: -1})
		internal = append(internal, int32(len(nodes)-1))
		remaining--
	}
	// Depth-first assign lengths.
	root := internal[len(internal)-1]
	type item struct {
		idx   int32
		depth uint8
	}
	stack := make([]item, 0, len(nodes))
	stack = append(stack, item{root, 0})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[it.idx]
		if nd.left < 0 {
			d := it.depth
			if d == 0 {
				d = 1
			}
			lengths[nd.sym] = d
			continue
		}
		stack = append(stack, item{nd.left, it.depth + 1}, item{nd.right, it.depth + 1})
	}
	return lengths
}

// canonicalCodes assigns canonical codes (numerically increasing with
// length, then symbol) from code lengths. Codes are returned bit-reversed so
// they can be emitted LSB-first. They are written into codes, which has one
// entry per symbol; entries of symbols without a code are left as they are.
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

func reverseBits(v uint64, n uint) uint64 {
	var out uint64
	for i := uint(0); i < n; i++ {
		out = out<<1 | (v>>i)&1
	}
	return out
}

// Encode compresses the symbol stream. alphabet is the exclusive upper bound
// on symbol values; callers typically pass maxSymbol+1.
//
//pressio:hotpath measured by the benchmark's huffman.* per-layer rows
func Encode(symbols []uint32, alphabet uint32) ([]byte, error) {
	if alphabet > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds %d", alphabet, uint32(maxAlphabet))
	}
	freq := make([]uint64, alphabet)
	for _, s := range symbols {
		if s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", s, alphabet)
		}
		freq[s]++
	}
	lengths := buildLengths(freq)
	// The body's size is known before a bit is written, so the writer never
	// regrows; and once the lengths exist the counts are dead, so the codes
	// take their place instead of a second alphabet-sized table.
	bodyBits := uint64(0)
	for s, l := range lengths {
		bodyBits += freq[s] * uint64(l)
	}
	codes, err := canonicalCodes(lengths, freq)
	if err != nil {
		return nil, err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(alphabet))
	hdr = binary.AppendUvarint(hdr, uint64(len(symbols)))
	hdr = append(hdr, encodeLengths(lengths)...)
	// The framing goes through the writer as well: LSB-first packing keeps
	// whole bytes whole, so the body still starts on a byte boundary and the
	// stream is assembled once instead of copied behind its header.
	w := bitstream.NewWriter(binary.MaxVarintLen64 + len(hdr) + int(bodyBits/8) + 8)
	for _, b := range binary.AppendUvarint(nil, uint64(len(hdr))) {
		w.WriteBits(uint64(b), 8)
	}
	for _, b := range hdr {
		w.WriteBits(uint64(b), 8)
	}
	for _, s := range symbols {
		w.WriteBits(codes[s], uint(lengths[s]))
	}
	return w.Bytes(), nil
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

// encodeLengths run-length encodes the code length table: pairs of
// (length byte, uvarint run).
func encodeLengths(lengths []uint8) []byte {
	// One length byte and a run of at most maxAlphabet per run, after the
	// leading count: sized by the runs, which follow the used symbols, not by
	// the table.
	runs := 0
	for i, l := range lengths {
		if i == 0 || l != lengths[i-1] {
			runs++
		}
	}
	out := make([]byte, 0, (1+runs)*(1+binary.MaxVarintLen32))
	out = binary.AppendUvarint(out, uint64(len(lengths)))
	i := 0
	for i < len(lengths) {
		j := i
		for j < len(lengths) && lengths[j] == lengths[i] {
			j++
		}
		out = append(out, lengths[i])
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
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
