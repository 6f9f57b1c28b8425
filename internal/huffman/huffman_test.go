package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pressio/internal/bitstream"
)

func roundTrip(t *testing.T, syms []uint32, alphabet uint32) {
	t.Helper()
	enc, err := Encode(syms, alphabet)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if bound := MaxEncodedLen(uint64(len(syms)), alphabet); uint64(len(enc)) > bound {
		t.Fatalf("%d encoded bytes, MaxEncodedLen says at most %d", len(enc), bound)
	}
	dec, alpha, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if alpha != alphabet {
		t.Fatalf("alphabet: got %d want %d", alpha, alphabet)
	}
	if len(dec) != len(syms) {
		t.Fatalf("length: got %d want %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], syms[i])
		}
	}
}

func TestEmpty(t *testing.T)        { roundTrip(t, nil, 16) }
func TestSingleSymbol(t *testing.T) { roundTrip(t, []uint32{7, 7, 7, 7, 7}, 16) }
func TestTwoSymbols(t *testing.T)   { roundTrip(t, []uint32{0, 1, 0, 0, 1, 1, 0}, 2) }

// TestMaxEncodedLenWorstTable: every other symbol of a wide alphabet, so the
// length table has the most runs n symbols can make.
func TestMaxEncodedLenWorstTable(t *testing.T) {
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(2*i + 1)
	}
	roundTrip(t, syms, 1<<16)
}

func TestUniformAlphabet(t *testing.T) {
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(i % 256)
	}
	roundTrip(t, syms, 256)
}

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := make([]uint32, 10000)
	for i := range syms {
		// Geometric-ish skew typical of quantization codes.
		v := uint32(0)
		for rng.Float64() < 0.5 && v < 63 {
			v++
		}
		syms[i] = v
	}
	roundTrip(t, syms, 64)
	// Skewed data must compress well below 6 bits/symbol.
	enc, _ := Encode(syms, 64)
	if len(enc) > 10000*4/8 {
		t.Fatalf("skewed stream poorly compressed: %d bytes", len(enc))
	}
}

func TestLargeAlphabetSparse(t *testing.T) {
	syms := []uint32{65000, 1, 65000, 2, 65000, 65000, 1}
	roundTrip(t, syms, 65536)
}

func TestPropertyRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := uint32(1 + rng.Intn(1000))
		n := rng.Intn(2000)
		syms := make([]uint32, n)
		for i := range syms {
			syms[i] = uint32(rng.Intn(int(alphabet)))
		}
		enc, err := Encode(syms, alphabet)
		if err != nil {
			return false
		}
		dec, _, err := Decode(enc)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range syms {
			if dec[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolOutsideAlphabet(t *testing.T) {
	if _, err := Encode([]uint32{9}, 4); err == nil {
		t.Fatal("expected error for out-of-alphabet symbol")
	}
}

func TestCorruptStreams(t *testing.T) {
	enc, err := Encode([]uint32{1, 2, 3, 1, 2, 3, 3, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error or return wrong-but-safe results, never panic.
	for cut := 0; cut < len(enc); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", cut, r)
				}
			}()
			_, _, _ = Decode(enc[:cut])
		}()
	}
	// Garbage header.
	if _, _, err := Decode([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

// frame builds a stream around a given length table and body, the way
// Encode lays it out, so tests control the code shape and the declared count.
func frame(lengths []uint8, count int, body []byte) []byte {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(lengths)))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = append(hdr, encodeLengths(uint32(len(lengths)), 0, lengths)...)
	out := binary.AppendUvarint(nil, uint64(len(hdr)))
	return append(append(out, hdr...), body...)
}

// encodeWith is Encode with the length table given instead of derived.
func encodeWith(t *testing.T, lengths []uint8, syms []uint32) []byte {
	t.Helper()
	codes, err := canonicalCodes(lengths, make([]uint64, len(lengths)))
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	for _, s := range syms {
		w.WriteBits(codes[s], uint(lengths[s]))
	}
	return frame(lengths, len(syms), w.Bytes())
}

// walk decodes one symbol bit by bit against the canonical first-code
// table, returning it with its code length. It was the decoder for codes
// longer than lutBits before decodeTable.long; it stays as the reference
// both the lookup table and long are tested against.
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

// decodeSerial is the oracle for the table-driven Decode: every symbol goes
// through the bit-serial canonical walk, nothing through the lookup table.
func decodeSerial(data []byte) ([]uint32, error) {
	var tbl decodeTable
	defer tbl.release()
	count, _, body, err := parse(data, &tbl, maxAlphabet)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, count)
	r := bitstream.NewReader(body)
	used := 0
	for i := range out {
		sym, l, err := tbl.walk(r)
		if err != nil {
			return nil, err
		}
		used += int(l)
		out[i] = sym
	}
	if used > 8*len(body) {
		return nil, ErrCorrupt
	}
	return out, nil
}

func TestGoldenStream(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Written by Encode at commit 46ffddb, before the decoder had a lookup
	// table: 14 of 300 symbols with Fibonacci frequencies, so the longest
	// code (13 bits) takes the walk and the short ones the table.
	stream := read("fib14_of_300.stream")
	want := make([]uint32, len(read("fib14_of_300.symbols"))/4)
	if err := binary.Read(bytes.NewReader(read("fib14_of_300.symbols")), binary.LittleEndian, want); err != nil {
		t.Fatal(err)
	}
	var tbl decodeTable
	defer tbl.release()
	_, _, _, err := parse(stream, &tbl, maxAlphabet)
	if err != nil || tbl.maxLen <= lutBits {
		t.Fatalf("golden must hold a code longer than %d bits: maxLen %d, err %v", lutBits, tbl.maxLen, err)
	}
	got, alphabet, err := Decode(stream)
	if err != nil || alphabet != 300 || !slices.Equal(got, want) {
		t.Fatalf("decode of the pinned stream: alphabet %d, err %v, symbols equal %v", alphabet, err, slices.Equal(got, want))
	}
	re, err := Encode(want, 300)
	if err != nil || !bytes.Equal(re, stream) {
		t.Fatalf("re-encoded stream differs from the pinned one (err %v): a format change needs a version", err)
	}
}

// TestDecodeMatchesSerialWalk compares the table decoder with the oracle over
// random code shapes, on whole streams and on every cut of the last 9 bytes.
func TestDecodeMatchesSerialWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// lengthsFor derives a valid table from frequencies spread over alphabet.
	lengthsFor := func(alphabet int, freqs []uint64) []uint8 {
		freq := make([]uint64, alphabet)
		for _, f := range freqs {
			s := rng.Intn(alphabet)
			for freq[s] != 0 {
				s = rng.Intn(alphabet)
			}
			freq[s] = f
		}
		return buildLengths(freq)
	}
	geometric := func(n int, ratio float64) []uint64 {
		out := make([]uint64, n)
		f := 1.0
		for i := range out {
			out[i] = uint64(f) + uint64(rng.Intn(3))
			f *= ratio
		}
		return out
	}
	for _, c := range []struct {
		name             string
		lengths          func() []uint8
		minLong, maxLong uint8 // bounds on the longest code the shape must produce
	}{
		{"single symbol", func() []uint8 { return lengthsFor(1+rng.Intn(40), []uint64{5}) }, 1, 1},
		{"all codes within the table", func() []uint8 { return lengthsFor(600, geometric(2+rng.Intn(200), 1.01)) }, 1, lutBits},
		{"codes up to 40 bits", func() []uint8 { return lengthsFor(64, geometric(41, 2)) }, 40, 40},
		{"sparse 65536 alphabet", func() []uint8 { return lengthsFor(65536, geometric(100+rng.Intn(200), 1.1)) }, lutBits + 1, maxCodeLen},
		// As sz codes a noisy 1-D field (hacc): symbol 0, the outliers, takes
		// a 1-bit code, and ~36 k near-uniform symbols of a 65536 alphabet,
		// one in 50 of them 2 to 16 times as common, take codes of 12 to 17
		// bits, every one longer than the lookup table.
		{"hacc-shaped 65536 alphabet", func() []uint8 {
			freq := make([]uint64, 65536)
			total := uint64(0)
			for _, s := range rng.Perm(len(freq) - 1)[:36000+rng.Intn(1000)] {
				f := 50 + uint64(rng.Intn(20))
				if rng.Intn(50) == 0 {
					f <<= 1 + rng.Intn(4)
				}
				freq[1+s] = f
				total += f
			}
			freq[0] = total * 4 / 3
			return buildLengths(freq)
		}, 17, 17},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				lengths := c.lengths()
				var usedSyms []uint32
				for s, l := range lengths {
					if l > 0 {
						usedSyms = append(usedSyms, uint32(s))
					}
				}
				if long := slices.Max(lengths); long < c.minLong || long > c.maxLong {
					t.Fatalf("shape produced a longest code of %d bits, want %d..%d", long, c.minLong, c.maxLong)
				}
				// Uniform over the used symbols, so long codes are as common
				// in the stream as short ones.
				syms := make([]uint32, 200+rng.Intn(800))
				for i := range syms {
					syms[i] = usedSyms[rng.Intn(len(usedSyms))]
				}
				checkDecodeMatchesWalk(t, encodeWith(t, lengths, syms), syms)
			}
		})
	}
}

// A lut entry holds a symbol in its top 28 bits, which reach every symbol of
// the largest alphabet: codes within lutBits of symbols past 1<<24 decode
// from the table too, not from long, whose scan starts at lutBits+1.
func TestDecodeSymbolsPastTheLookupTable(t *testing.T) {
	// Canonical codes follow length and symbol order only, so the four used
	// symbols' codes come from a table of them alone, not one of 2^24 slots.
	used := []uint32{5, 7, 1<<24 + 1, 1<<24 + 3}
	usedLens := []uint8{2, 3, 1, 3}
	codes, err := canonicalCodes(usedLens, make([]uint64, len(used)))
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]uint8, 1<<24+4)
	w := bitstream.NewWriter(0)
	var syms []uint32
	for _, i := range []int{0, 2, 1, 3, 2, 2, 0, 1} {
		lengths[used[i]] = usedLens[i]
		syms = append(syms, used[i])
		w.WriteBits(codes[i], uint(usedLens[i]))
	}
	checkDecodeMatchesWalk(t, frame(lengths, len(syms), w.Bytes()), syms)
}

// checkDecodeMatchesWalk requires Decode and the serial walk to agree on
// stream, which codes syms, and on every cut of its last 9 bytes: the whole
// stream decodes to syms and every cut one is refused.
func checkDecodeMatchesWalk(t *testing.T, stream []byte, syms []uint32) {
	t.Helper()
	for cut := 0; cut <= 9 && cut <= len(stream); cut++ {
		data := stream[:len(stream)-cut]
		want, wantErr := decodeSerial(data)
		got, _, gotErr := Decode(data)
		if (gotErr == nil) != (wantErr == nil) || !slices.Equal(got, want) {
			t.Fatalf("cut %d: table decoder (err %v) and serial walk (err %v) disagree", cut, gotErr, wantErr)
		}
		if cut == 0 && (gotErr != nil || !slices.Equal(got, syms)) {
			t.Fatalf("whole stream did not round trip: %v", gotErr)
		}
		if cut > 0 && gotErr == nil {
			t.Fatalf("stream cut by %d bytes was accepted", cut)
		}
	}
}

// A body shorter than the codes it is declared to hold used to decode: the
// reader pads with zero bits and zero bits are a valid code.
func TestDecodeRejectsTruncatedBody(t *testing.T) {
	lengths := []uint8{2, 2, 2, 2}
	whole := encodeWith(t, lengths, make([]uint32, 8)) // 8 x 2 bits = 2 body bytes
	for _, data := range [][]byte{
		frame(lengths, 8, nil), // no body at all
		whole[:len(whole)-1],   // the count fits the body's bit length, the codes do not
	} {
		if syms, _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated body decoded to %v, err %v; want ErrCorrupt", syms, err)
		}
	}
	if _, _, err := Decode(whole); err != nil {
		t.Fatalf("whole stream: %v", err)
	}
}

// overSubscribed declares three 1-bit codes: the third has no code point.
var overSubscribed = frame([]uint8{1, 1, 1}, 4, []byte{0b0101})

func TestDecodeRejectsOverSubscribedLengths(t *testing.T) {
	if syms, _, err := Decode(overSubscribed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-subscribed table decoded to %v, err %v; want ErrCorrupt", syms, err)
	}
	// 256 one-bit codes beside a 57-bit one wrap a Kraft sum scaled to the
	// longest code in 64 bits back to a legal value.
	wrap := append(bytes.Repeat([]uint8{1}, 256), maxCodeLen)
	if _, _, err := Decode(frame(wrap, 4, []byte{0b0101})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-subscribed table with a wrapping Kraft sum: err %v, want ErrCorrupt", err)
	}
	// An incomplete table is legal; its unassigned code point is not.
	if _, _, err := Decode(frame([]uint8{1, 2}, 2, []byte{0b010})); err != nil {
		t.Fatalf("incomplete table, assigned codes: %v", err)
	}
	if _, _, err := Decode(frame([]uint8{1, 2}, 1, []byte{0b11})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unassigned code point: err %v, want ErrCorrupt", err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		v := uint32(0)
		for rng.Float64() < 0.6 && v < 255 {
			v++
		}
		syms[i] = v
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(syms, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		v := uint32(0)
		for rng.Float64() < 0.6 && v < 255 {
			v++
		}
		syms[i] = v
	}
	enc, err := Encode(syms, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAlphabetPastBoundAllocatesNothing decodes a 16-byte stream whose header
// declares 2^24 symbols against a caller's bound of 2^16: it is refused before
// its 16.8 MB length table is allocated.
func TestAlphabetPastBoundAllocatesNothing(t *testing.T) {
	var hdr []byte
	for _, v := range []uint64{1 << 24, 1, 1 << 24} { // alphabet, count, table size
		hdr = binary.AppendUvarint(hdr, v)
	}
	hdr = append(hdr, 1) // a run's code length, its count missing
	data := append(binary.AppendUvarint(nil, uint64(len(hdr))), hdr...)
	data = append(data, make([]byte, 16-len(data))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := AppendDecode(nil, data, 1<<16)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a %d-byte stream allocated %d bytes", len(data), alloc)
	}
}
