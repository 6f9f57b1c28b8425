package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"pressio/internal/bitstream"
	"pressio/internal/core"
	"pressio/internal/lossless"
)

// encodeRef is Encode as of commit 6f2086d: counts and codes in tables over
// the whole alphabet, one bitstream.Writer call per symbol. It is the oracle
// the span-sized tables, the packed body writer and the leaner tree build
// must match byte for byte.
func encodeRef(symbols []uint32, alphabet uint32) ([]byte, error) {
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
	lengths := buildLengthsRef(freq)
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
	hdr = append(hdr, encodeLengthsRef(lengths)...)
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

// buildLengthsRef is buildLengths as of commit 6f2086d.
func buildLengthsRef(freq []uint64) []uint8 {
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

// encodeLengthsRef is encodeLengths as of commit 6f2086d, over the whole
// table.
func encodeLengthsRef(lengths []uint8) []byte {
	out := binary.AppendUvarint(nil, uint64(len(lengths)))
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

// matchEncodeRef encodes with Encode and encodeRef: both fail, or both give
// the same bytes.
func matchEncodeRef(t *testing.T, name string, symbols []uint32, alphabet uint32) {
	t.Helper()
	want, wantErr := encodeRef(symbols, alphabet)
	got, err := Encode(symbols, alphabet)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the reference's %d", name, len(got), len(want))
	}
}

// szMagic matches the magics of both sz modes, whose headers are laid out
// alike: shape, then four uvarints (the bound, the mode's field, the outlier
// count, the Huffman length).
var szMagic = regexp.MustCompile("SZG[12]")

// szSections returns the Huffman section of every SZG1 and SZG2 stream in
// data (whole streams, SZMP blocks and SZPW's inner stream alike): the
// header's Huffman length, then the inflated body's leading Huffman stream.
func szSections(tb testing.TB, data []byte) (sections [][]byte) {
	tb.Helper()
	for _, loc := range szMagic.FindAllIndex(data, -1) {
		off, b := loc[0], data[loc[1]:]
		_, _, n, err := core.ReadFloatShape(b, core.MaxRank, 1<<42)
		if err != nil {
			tb.Fatalf("%s at %d: %v", data[off:loc[1]], off, err)
		}
		var huffLen uint64
		for range 4 {
			v, sz := binary.Uvarint(b[n:])
			if sz <= 0 {
				tb.Fatalf("%s at %d: truncated header", data[off:loc[1]], off)
			}
			huffLen, n = v, n+sz
		}
		body, err := lossless.Inflate(b[n:], 1<<30)
		if err != nil || huffLen > uint64(len(body)) {
			tb.Fatalf("%s at %d: body: %v", data[off:loc[1]], off, err)
		}
		sections = append(sections, body[:huffLen])
	}
	return sections
}

// szCodes returns the quantisation codes and alphabet of every SZG1 and SZG2
// stream in data, each of which the reference re-encodes to its section.
func szCodes(t *testing.T, data []byte) (codes [][]uint32, alphabets []uint32) {
	t.Helper()
	for i, section := range szSections(t, data) {
		syms, alphabet, err := Decode(section)
		if err != nil {
			t.Fatalf("stream %d: codes: %v", i, err)
		}
		if re, _ := encodeRef(syms, alphabet); !bytes.Equal(re, section) {
			t.Fatalf("stream %d: the reference does not re-encode the pinned codes", i)
		}
		codes, alphabets = append(codes, syms), append(alphabets, alphabet)
	}
	return codes, alphabets
}

// szGoldens returns the paths of the pinned sz streams.
func szGoldens(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "sz", "testdata", "golden", "*.stream"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no sz goldens: %v", err)
	}
	return files
}

func TestEncodeMatchesReference(t *testing.T) {
	ramp := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(3 * i)
		}
		return out
	}
	repeat := func(s uint32, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	for _, c := range []struct {
		name     string
		symbols  []uint32
		alphabet uint32
	}{
		{"empty", nil, 16},
		{"empty, empty alphabet", nil, 0},
		{"one symbol, empty alphabet", []uint32{0}, 0},
		{"one symbol", []uint32{7}, 16},
		{"one symbol repeated", repeat(7, 50), 16},
		{"code 0 only", repeat(0, 40), 65536},
		{"code 0 once", []uint32{0}, 1},
		{"code 0 absent", []uint32{32768, 32769, 32767, 32768, 32770}, 65536},
		{"code 0 present", []uint32{32768, 0, 32769, 32767, 0, 32768}, 65536},
		{"symbols at alphabet-1", []uint32{65535, 65535, 1, 65534, 0}, 65536},
		{"alphabet-1 alone", repeat(299, 9), 300},
		{"symbol at alphabet", []uint32{3, 16}, 16},
		{"alphabet past the cap", []uint32{1}, maxAlphabet + 1},
		{"wide span", []uint32{1, 1 << 20, 5, 5, 5, 0}, 1<<20 + 1},
		{"ties: 3000 symbols twice each", append(ramp(3000), ramp(3000)...), 65536},
	} {
		matchEncodeRef(t, c.name, c.symbols, c.alphabet)
	}

	// Quantisation-code shapes: a peak at the radius with geometric tails,
	// with and without outliers, over narrow and wide code ranges.
	rng := rand.New(rand.NewSource(5))
	for _, alphabet := range []uint32{2, 8, 256, 65536} {
		for _, outliers := range []float64{0, 0.01, 0.5, 1} {
			syms := make([]uint32, 1+rng.Intn(5000))
			for i := range syms {
				if rng.Float64() < outliers {
					continue
				}
				v := int64(alphabet/2) + int64(rng.NormFloat64()*float64(1+rng.Intn(40)))
				syms[i] = uint32(min(max(v, 1), int64(alphabet)-1))
			}
			matchEncodeRef(t, fmt.Sprintf("alphabet %d, outliers %v", alphabet, outliers), syms, alphabet)
		}
	}
	// Many equal weights at every size the sort treats differently: the
	// order ties come out in decides the code lengths.
	for _, distinct := range []int{3, 12, 13, 50, 700, 20000} {
		var syms []uint32
		for s := range distinct {
			for range 1 + rng.Intn(3) {
				syms = append(syms, uint32(s))
			}
		}
		rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
		matchEncodeRef(t, fmt.Sprintf("%d symbols with tied weights", distinct), syms, 65536)
	}

	// The codes of every pinned sz stream.
	walked := map[string]bool{}
	for _, f := range szGoldens(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		walked[string(data[:4])] = true
		codes, alphabets := szCodes(t, data)
		if len(codes) == 0 {
			t.Fatalf("%s holds no SZG1 or SZG2 stream", f)
		}
		for i := range codes {
			matchEncodeRef(t, fmt.Sprintf("%s stream %d", filepath.Base(f), i), codes[i], alphabets[i])
		}
	}
	if !walked["SZG1"] || !walked["SZG2"] {
		t.Fatalf("the goldens begin with %v: want both SZG1 and SZG2 streams", walked)
	}
}

// FuzzEncodeMatchesReference draws the alphabet and the symbols from the
// fuzzer's bytes, some of them past the alphabet: Encode and the reference
// must agree on every input.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(uint32(65536), []byte{0, 128, 1, 128, 0, 0, 255, 127})
	f.Add(uint32(16), []byte{})
	f.Add(uint32(1), []byte{0, 0, 0, 0})
	f.Add(uint32(300), []byte{43, 1, 43, 1, 7, 0})
	f.Fuzz(func(t *testing.T, alphabet uint32, raw []byte) {
		alphabet %= 1 << 17
		syms := make([]uint32, len(raw)/2)
		for i := range syms {
			// A few symbols land past the alphabet, where both must fail.
			syms[i] = uint32(binary.LittleEndian.Uint16(raw[2*i:])) % (alphabet + alphabet/16 + 1)
		}
		matchEncodeRef(t, "fuzz", syms, alphabet)
	})
}
