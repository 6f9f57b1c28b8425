package huffman

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzDecode drives the canonical Huffman decoder with arbitrary bytes: no
// panics, and accepted streams must re-encode consistently.
func FuzzDecode(f *testing.F) {
	good, _ := Encode([]uint32{0, 1, 2, 1, 0, 3, 3, 3}, 8)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(overSubscribed)
	f.Add(good[:len(good)-1]) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		syms, alphabet, err := Decode(data)
		if err != nil {
			return
		}
		for _, s := range syms {
			if s >= alphabet {
				t.Fatalf("decoded symbol %d outside alphabet %d", s, alphabet)
			}
		}
		// An accepted stream's symbols must survive a fresh round trip.
		enc, err := Encode(syms, alphabet)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, _, err := Decode(enc)
		if err != nil || len(back) != len(syms) {
			t.Fatalf("re-decode failed: %v", err)
		}
		for i := range syms {
			if back[i] != syms[i] {
				t.Fatalf("re-decode mismatch at %d", i)
			}
		}
	})
}

// FuzzDecodeMatchesWalk lets the fuzzer pick the code shape and the symbol
// string of the differential between Decode and the bit-serial walk. Byte i
// of shape gives symbol i the frequency 2^(b%49), or none for b = 0, so codes
// run from 1 bit to past maxCodeLen (such shapes are skipped); each 2 bytes
// of picks choose one of the symbols in use.
func FuzzDecodeMatchesWalk(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3}, []byte{0, 0, 1, 0, 2, 0, 3, 0, 3, 0})
	fib := make([]byte, 30) // frequencies 1, 2, 4, ...: codes to 29 bits
	for i := range fib {
		fib[i] = byte(1 + i)
	}
	f.Add(fib, []byte{29, 0, 28, 0, 0, 0, 14, 0, 13, 0, 12, 0, 11, 0, 1, 0})
	flat := make([]byte, 3000) // two frequencies: codes of 11 and 12 bits
	for i := range flat {
		flat[i] = byte(1 + i%2)
	}
	f.Add(flat, []byte{0xff, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	f.Fuzz(func(t *testing.T, shape, picks []byte) {
		if len(shape) > 4096 || len(picks) > 4096 {
			return
		}
		freq := make([]uint64, len(shape))
		for i, b := range shape {
			if b != 0 {
				freq[i] = 1 << (b % 49)
			}
		}
		lengths := buildLengths(freq)
		var used []uint32
		for s, l := range lengths {
			if l > 0 {
				used = append(used, uint32(s))
			}
		}
		if len(used) == 0 || slices.Max(lengths) > maxCodeLen {
			return
		}
		syms := make([]uint32, len(picks)/2)
		for i := range syms {
			syms[i] = used[int(binary.LittleEndian.Uint16(picks[2*i:]))%len(used)]
		}
		checkDecodeMatchesWalk(t, encodeWith(t, lengths, syms), syms)
	})
}

// refBound is the alphabet bound of the differential: the reference expands
// the length table to one byte per symbol, and its symbol table to four, so
// the bound keeps that to 5 MB. It holds sz's usual alphabet of 65,536 and
// every sz golden's; TestOneRunTableAllocatesLittle covers 2^24.
const refBound = 1 << 20

// FuzzDecodeMatchesReference hands arbitrary bytes to AppendDecode and to
// the decoder it replaced (decode_ref_test.go): both return the same symbols
// and alphabet, or both refuse the stream as corrupt.
func FuzzDecodeMatchesReference(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "fib14_of_300.stream"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, path := range szGoldens(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, section := range szSections(f, data) {
			f.Add(section)
		}
	}
	f.Add(overSubscribed)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantAlphabet, wantErr := decodeRef(data, refBound)
		got, alphabet, err := AppendDecode(nil, data, refBound)
		switch {
		case wantErr != nil || err != nil:
			if !errors.Is(wantErr, ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decoder err %v, reference err %v: want both ErrCorrupt", err, wantErr)
			}
		case alphabet != wantAlphabet || !slices.Equal(got, want):
			t.Fatalf("decoder gives %d symbols of alphabet %d, reference %d of %d, equal %v",
				len(got), alphabet, len(want), wantAlphabet, slices.Equal(got, want))
		}
	})
}
