package zfp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"pressio/internal/bitstream"
)

// encodeIntsRef and decodeIntsRef are the embedded coder as it stood before
// the rewrite, the zfp reference's C loops (encode_ints/decode_ints)
// transliterated: every plane re-extracted coefficient by coefficient, every
// group-test and run bit its own WriteBit/ReadBit. They are the oracle the
// word-at-a-time coder in codec.go must match bit for bit; do not edit them.
func encodeIntsRef(w *bitstream.Writer, data []uint64, intprec, maxprec uint, maxbits uint64) uint64 {
	size := uint(len(data))
	kmin := uint(0)
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	bits := maxbits
	n := uint(0)
	for k := intprec; bits > 0 && k > kmin; {
		k--
		// Step 1: extract bit plane k.
		var x uint64
		for i := uint(0); i < size; i++ {
			x |= ((data[i] >> k) & 1) << i
		}
		// Step 2: encode the first n bits verbatim.
		m := uint64(n)
		if m > bits {
			m = bits
		}
		bits -= m
		w.WriteBits(x, uint(m))
		x >>= m
		// Step 3: group test + unary run-length encode the remainder.
		for n < size && bits > 0 {
			bits--
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && bits > 0 {
				bits--
				b := uint(x & 1)
				w.WriteBit(b)
				if b != 0 {
					break // the one is consumed by the outer shift
				}
				x >>= 1
				n++
			}
			x >>= 1
			n++
		}
	}
	return maxbits - bits
}

func decodeIntsRef(r *bitstream.Reader, data []uint64, intprec, maxprec uint, maxbits uint64) uint64 {
	size := uint(len(data))
	for i := range data {
		data[i] = 0
	}
	kmin := uint(0)
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	bits := maxbits
	n := uint(0)
	for k := intprec; bits > 0 && k > kmin; {
		k--
		m := uint64(n)
		if m > bits {
			m = bits
		}
		bits -= m
		x := r.ReadBits(uint(m))
		for n < size && bits > 0 {
			bits--
			if r.ReadBit() == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				if r.ReadBit() != 0 {
					break
				}
				n++
			}
			x |= uint64(1) << n
			n++
		}
		for i := uint(0); x != 0; i, x = i+1, x>>1 {
			data[i] |= (x & 1) << k
		}
	}
	return maxbits - bits
}

// tail follows every coded block in the differential's streams, so that two
// readers agree on the next 64 bits only if they stopped at the same bit.
var tail = []byte{0x4f, 0xa1, 0x36, 0xd2, 0x0b, 0x7e, 0xc9, 0x58, 0x93, 0xe4, 0x1d, 0x62}

// checkBlockCoder codes one block with both coders, lead bits into the
// stream, and requires the same bytes and bit count, then decodes them (from
// the whole stream, and cut at every length when cuts is set) and requires
// the same coefficients, bit count and reader position.
func checkBlockCoder(t *testing.T, block *[64]uint64, size, intprec, maxprec uint, maxbits uint64, lead uint, cuts bool) {
	t.Helper()
	ref, got := bitstream.NewWriter(64), bitstream.NewWriter(64)
	ref.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
	got.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
	refUsed := encodeIntsRef(ref, block[:size], intprec, maxprec, maxbits)
	clobbered := *block
	gotUsed := encodeInts(got, &clobbered, size, intprec, maxprec, maxbits)
	if gotUsed != refUsed || got.Len() != ref.Len() {
		t.Fatalf("size %d prec %d/%d budget %d: encoder reports %d bits (%d written), reference %d (%d)",
			size, maxprec, intprec, maxbits, gotUsed, got.Len()-uint64(lead), refUsed, ref.Len()-uint64(lead))
	}
	stream := ref.Bytes()
	if !bytes.Equal(got.Bytes(), stream) {
		t.Fatalf("size %d prec %d/%d budget %d lead %d: streams differ\n got %x\nwant %x\nblock %x",
			size, maxprec, intprec, maxbits, lead, got.Bytes(), stream, block[:size])
	}
	full := append(append([]byte(nil), stream...), tail...)
	first := len(full)
	if cuts {
		first = 0
	}
	var want, have, planes [64]uint64
	for cut := first; cut <= len(full); cut++ {
		rr, gr := bitstream.NewReader(full[:cut]), bitstream.NewReader(full[:cut])
		rr.ReadBits(lead)
		gr.ReadBits(lead)
		refUsed := decodeIntsRef(rr, want[:size], intprec, maxprec, maxbits)
		for i := range have { // stale scratch must not leak into the result
			have[i], planes[i] = ^uint64(0), ^uint64(0)
		}
		gotUsed := decodeInts(gr, &have, &planes, size, intprec, maxprec, maxbits)
		if gotUsed != refUsed {
			t.Fatalf("size %d prec %d/%d budget %d cut %d: decoder reports %d bits, reference %d",
				size, maxprec, intprec, maxbits, cut, gotUsed, refUsed)
		}
		if !slices.Equal(have[:size], want[:size]) {
			t.Fatalf("size %d prec %d/%d budget %d cut %d/%d: coefficients differ\n got %x\nwant %x",
				size, maxprec, intprec, maxbits, cut, len(full), have[:size], want[:size])
		}
		if g, w := gr.ReadBits(64), rr.ReadBits(64); g != w {
			t.Fatalf("size %d prec %d/%d budget %d cut %d: reader left at the wrong bit", size, maxprec, intprec, maxbits, cut)
		}
	}
}

// randomBlock draws size coefficients of intprec bits: dense (every plane
// about half ones), decaying like transform coefficients in sequency order,
// sparse (a few set bits in all) or zero.
func randomBlock(rng *rand.Rand, size, intprec uint) *[64]uint64 {
	var b [64]uint64
	mask := ^uint64(0) >> (64 - intprec)
	switch kind := rng.Intn(4); kind {
	case 0:
		for i := range b[:size] {
			b[i] = rng.Uint64() & mask
		}
	case 1:
		top := uint(rng.Intn(int(intprec)))
		for i := range b[:size] {
			b[i] = rng.Uint64() & mask >> min(top+uint(i)*intprec/(2*size)+uint(rng.Intn(4)), 63)
		}
	case 2:
		for n := rng.Intn(6); n >= 0; n-- {
			b[rng.Intn(int(size))] |= 1 << rng.Intn(int(intprec))
		}
	}
	return &b
}

// TestBlockCoderMatchesReference is the differential behind the claim that
// the rewrite leaves every stream byte-identical.
func TestBlockCoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for _, size := range []uint{4, 16, 64} {
		for _, intprec := range []uint{32, 64} {
			for maxprec := uint(1); maxprec <= intprec; maxprec++ {
				// Budgets 0..40 exhaustively (they cut the verbatim bits, the
				// group test and the run at every position), then a sample of
				// larger ones up to a full block, and unlimited.
				budgets := make([]uint64, 0, 48)
				for b := uint64(0); b <= 40; b++ {
					budgets = append(budgets, b)
				}
				for i := 0; i < 6; i++ {
					budgets = append(budgets, 41+uint64(rng.Intn(int(size*intprec))))
				}
				budgets = append(budgets, hugeBits)
				for _, maxbits := range budgets {
					for i := 0; i < rounds/10; i++ {
						checkBlockCoder(t, randomBlock(rng, size, intprec), size, intprec, maxprec, maxbits, uint(rng.Intn(64)), false)
					}
				}
			}
			// Truncated input: fewer cases, each decoded from every prefix.
			for i := 0; i < rounds; i++ {
				maxbits := hugeBits
				if i%2 == 1 {
					maxbits = uint64(rng.Intn(int(size * intprec)))
				}
				checkBlockCoder(t, randomBlock(rng, size, intprec), size, intprec, 1+uint(rng.Intn(int(intprec))), maxbits, uint(rng.Intn(64)), true)
			}
		}
	}
}

// FuzzBlockCoderMatchesReference lets the fuzzer pick the block, precision
// and budget of the differential.
func FuzzBlockCoderMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 31, 0xff, 0xff, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 1, 63, 40, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 11, 0, 1, 17})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		size := uint(4) << (2 * (in[0] % 3))
		intprec := uint(32) << (in[1] % 2)
		maxprec := 1 + uint(in[2])%intprec
		maxbits := uint64(binary.LittleEndian.Uint16(in[3:]))
		if maxbits == 0xffff {
			maxbits = hugeBits
		}
		lead := uint(in[5]) % 64
		var block [64]uint64
		var word [8]byte
		for i, rest := 0, in[6:]; i < int(size) && len(rest) > 0; i++ {
			n := copy(word[:], rest)
			rest = rest[n:]
			block[i] = binary.LittleEndian.Uint64(word[:]) & (^uint64(0) >> (64 - intprec))
		}
		checkBlockCoder(t, &block, size, intprec, maxprec, maxbits, lead, true)
	})
}

// TestTransposeDefinition checks transpose against its definition: bit c of
// word r and bit r of word c change places — over all 64 words, or for n ==
// 32 within each half of the first 32 words, the rest left alone.
func TestTransposeDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []uint{32, 64} {
		for round := 0; round < 50; round++ {
			var a [64]uint64
			for i := range a {
				a[i] = rng.Uint64() >> (round % 3 * 20) // dense and sparser
			}
			got := a
			transpose(&got, n)
			for r := uint(0); r < 64; r++ {
				for c := uint(0); c < 64; c++ {
					want := a[r] >> c & 1
					if r < n {
						// Source of the bit now at (r, c): the same half, row
						// and column within it exchanged.
						want = a[c%n] >> (r + c/n*n) & 1
					}
					if got[r]>>c&1 != want {
						t.Fatalf("n=%d: bit %d of word %d is %d, want %d", n, c, r, got[r]>>c&1, want)
					}
				}
			}
			transpose(&got, n)
			if got != a {
				t.Fatalf("n=%d: transposing twice is not the identity", n)
			}
		}
	}
}
