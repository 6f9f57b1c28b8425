package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleBitsRoundTrip(t *testing.T) {
	w := NewWriter(16)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		if got := r.ReadBit(); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsWidths(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		w := NewWriter(64)
		vals := make([]uint64, 20)
		rng := rand.New(rand.NewSource(int64(width)))
		for i := range vals {
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			vals[i] = v
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes())
		for i, want := range vals {
			if got := r.ReadBits(width); got != want {
				t.Fatalf("width %d val %d: got %#x want %#x", width, i, got, want)
			}
		}
	}
}

func TestMixedWidthsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(200)
		type rec struct {
			v uint64
			w uint
		}
		recs := make([]rec, n)
		wtr := NewWriter(0)
		for i := range recs {
			width := uint(1 + rng.Intn(64))
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			recs[i] = rec{v, width}
			wtr.WriteBits(v, width)
		}
		r := NewReader(wtr.Bytes())
		for _, rc := range recs {
			if r.ReadBits(rc.w) != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := NewWriter(0)
	vals := []uint{0, 1, 2, 5, 63, 64, 65, 130, 7, 0, 1}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		if got := r.ReadUnary(); got != want {
			t.Fatalf("unary %d: got %d want %d", i, got, want)
		}
	}
}

func TestLenCountsBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xff, 3)
	w.WriteBit(1)
	w.WriteBits(0, 60)
	w.WriteBits(1, 64)
	if w.Len() != 3+1+60+64 {
		t.Fatalf("Len = %d, want 128", w.Len())
	}
	if len(w.Bytes()) != 16 {
		t.Fatalf("Bytes len = %d, want 16", len(w.Bytes()))
	}
}

func TestReadPastEndIsZero(t *testing.T) {
	r := NewReader([]byte{0xff})
	if got := r.ReadBits(8); got != 0xff {
		t.Fatalf("got %#x", got)
	}
	if got := r.ReadBits(16); got != 0 {
		t.Fatalf("past-end bits = %#x, want 0", got)
	}
	if got := r.ReadBit(); got != 0 {
		t.Fatalf("past-end bit = %d, want 0", got)
	}
}

func TestPeekSkip(t *testing.T) {
	// 0xA5 0x3C, LSB-first: bits 1010_0101 then 0011_1100.
	r := NewReader([]byte{0xa5, 0x3c})
	if got := r.Peek(11); got != 0x4a5 {
		t.Fatalf("Peek(11) = %#x, want 0x4a5", got)
	}
	if got := r.Peek(11); got != 0x4a5 {
		t.Fatalf("Peek consumed bits: second Peek(11) = %#x", got)
	}
	r.Skip(4)
	if got := r.ReadBits(4); got != 0xa {
		t.Fatalf("after Skip(4), ReadBits(4) = %#x, want 0xa", got)
	}
	// Skip without a Peek first must still load what it drops.
	r = NewReader([]byte{0xa5, 0x3c})
	r.Skip(12)
	if got := r.Peek(4); got != 0x3 {
		t.Fatalf("after Skip(12), Peek(4) = %#x, want 0x3", got)
	}
	// At the end: the 4 bits left, zero-extended.
	if got := r.Peek(11); got != 0x3 {
		t.Fatalf("Peek(11) across the end = %#x, want 0x3", got)
	}
	// Past the end: Skip is not an error and everything after reads zero.
	r.Skip(11)
	if got := r.Peek(57); got != 0 {
		t.Fatalf("Peek past the end = %#x, want 0", got)
	}
	r.Skip(57)
	if got := r.ReadBits(64); got != 0 {
		t.Fatalf("ReadBits past the end = %#x, want 0", got)
	}
	if got := NewReader(nil).Peek(0); got != 0 {
		t.Fatalf("Peek(0) = %#x, want 0", got)
	}
}

func TestWriterReusableAfterBytes(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b101, 3)
	first := w.Bytes()
	if NewReader(first).ReadBits(3) != 0b101 {
		t.Fatal("first snapshot wrong")
	}
	w.WriteBits(0b11, 2)
	r := NewReader(w.Bytes())
	if r.ReadBits(3) != 0b101 || r.ReadBits(2) != 0b11 {
		t.Fatal("second snapshot wrong")
	}
}

// readRunRef is ReadRun's definition, one ReadBit at a time.
func readRunRef(r *Reader, limit uint) uint {
	var zeros uint
	for zeros < limit && r.ReadBit() == 0 {
		zeros++
	}
	return zeros
}

func TestReadRun(t *testing.T) {
	// Every limit of interest (0, 1, the 57-bit refill width and its
	// neighbour, the widest zfp run and the cap) against runs shorter than,
	// equal to and longer than it, at every bit offset, so runs start before,
	// on and across the reader's refill boundary. The buffer ends right after
	// the run's one, so the longer runs also read at and past its end.
	for _, limit := range []uint{0, 1, 2, 7, 56, 57, 58, 63, 64} {
		for _, zeros := range []uint{0, 1, 5, 56, 57, 58, 62, 63, 64, 70, 130} {
			for off := uint(0); off < 70; off++ {
				w := NewWriter(0)
				for i := uint(0); i < off; i++ {
					w.WriteBit(i % 3 & 1)
				}
				w.WriteUnary(zeros)
				w.WriteBits(0b1011, 4)
				for _, buf := range [][]byte{w.Bytes(), w.Bytes()[:(off+zeros)/8]} {
					r, ref := NewReader(buf), NewReader(buf)
					r.Skip(off % 57)
					r.Skip(off - off%57)
					ref.ReadBits(off)
					got, want := r.ReadRun(limit), readRunRef(ref, limit)
					if got != want {
						t.Fatalf("limit %d, %d zeros at bit %d of %d bytes: ReadRun = %d, want %d", limit, zeros, off, len(buf), got, want)
					}
					if g, w := r.ReadBits(64), ref.ReadBits(64); g != w {
						t.Fatalf("limit %d, %d zeros at bit %d of %d bytes: reader left at the wrong bit (%#x, want %#x)", limit, zeros, off, len(buf), g, w)
					}
				}
			}
		}
	}
	// A limit above 64 is clamped, and an exhausted reader supplies zeros.
	if got := NewReader(nil).ReadRun(1000); got != 64 {
		t.Fatalf("ReadRun(1000) past the end = %d, want 64", got)
	}
}

func TestTakeMatchesBytes(t *testing.T) {
	for n := uint(0); n < 130; n++ {
		w := NewWriter(0)
		for i := uint(0); i < n; i++ {
			w.WriteBit(i * 7 % 5 & 1)
		}
		want := w.Bytes()
		if got := w.Take(); !bytes.Equal(got, want) {
			t.Fatalf("%d bits: Take = %x, Bytes = %x", n, got, want)
		}
	}
}

func BenchmarkWriteBits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(1 << 13)
		for j := 0; j < 1024; j++ {
			w.WriteBits(uint64(j)*0x9e3779b97f4a7c15, 37)
		}
		_ = w.Bytes()
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 13)
	for j := 0; j < 1024; j++ {
		w.WriteBits(uint64(j)*0x9e3779b97f4a7c15, 37)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		var sink uint64
		for j := 0; j < 1024; j++ {
			sink += r.ReadBits(37)
		}
		_ = sink
	}
}
