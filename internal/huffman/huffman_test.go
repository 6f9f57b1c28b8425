package huffman

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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

// decodeSerial is the oracle for the table-driven Decode: every symbol goes
// through the bit-serial canonical walk, nothing through the lookup table.
func decodeSerial(data []byte) ([]uint32, error) {
	tbl, count, _, body, err := parse(data)
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
	tbl, _, _, _, err := parse(stream)
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
				stream := encodeWith(t, lengths, syms)
				for cut := 0; cut <= 9 && cut <= len(stream); cut++ {
					data := stream[:len(stream)-cut]
					want, wantErr := decodeSerial(data)
					got, _, gotErr := Decode(data)
					if (gotErr == nil) != (wantErr == nil) || !slices.Equal(got, want) {
						t.Fatalf("round %d cut %d: table decoder (err %v) and serial walk (err %v) disagree", round, cut, gotErr, wantErr)
					}
					if cut == 0 && (gotErr != nil || !slices.Equal(got, syms)) {
						t.Fatalf("round %d: whole stream did not round trip: %v", round, gotErr)
					}
					if cut > 0 && gotErr == nil {
						t.Fatalf("round %d: stream cut by %d bytes was accepted", round, cut)
					}
				}
			}
		})
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
