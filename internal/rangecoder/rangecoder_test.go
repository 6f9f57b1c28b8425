package rangecoder

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdaptiveBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bits := make([]int, 50000)
	for i := range bits {
		// Heavily biased source to exercise adaptation.
		if rng.Float64() < 0.9 {
			bits[i] = 0
		} else {
			bits[i] = 1
		}
	}
	enc := NewEncoder()
	p := NewProb()
	for _, b := range bits {
		enc.EncodeBit(&p, b)
	}
	out := enc.Finish()
	// A 0.9-biased source has entropy ~0.47 bits/bit; the coder should land
	// well under 0.6 bits/bit.
	if len(out)*8 > 30000 {
		t.Fatalf("biased stream poorly compressed: %d bytes", len(out))
	}
	dec := NewDecoder(out)
	q := NewProb()
	for i, want := range bits {
		if got := dec.DecodeBit(&q); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

// EncodeBitsRaw encodes n (≤ 32) equiprobable bits, MSB first. It left the
// package when fpzip moved its raw bits out of the range-coded segment
// (FPZ2); DecodeBitsRaw still reads FPZ1 streams and is tested against it.
func (e *Encoder) EncodeBitsRaw(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.rng >>= 1
		bit := (v >> uint(i)) & 1
		if bit != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

func TestRawBitsRoundTrip(t *testing.T) {
	enc := NewEncoder()
	vals := []struct {
		v uint32
		n uint
	}{{0, 1}, {1, 1}, {0xdead, 16}, {0xffffffff, 32}, {5, 3}, {0, 32}, {1 << 30, 31}}
	for _, x := range vals {
		enc.EncodeBitsRaw(x.v, x.n)
	}
	dec := NewDecoder(enc.Finish())
	for i, x := range vals {
		if got := dec.DecodeBitsRaw(x.n); got != x.v {
			t.Fatalf("raw %d: got %#x want %#x", i, got, x.v)
		}
	}
}

func TestMixedAdaptiveAndRaw(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		type op struct {
			raw  bool
			bit  int
			v    uint32
			w    uint
			pctx int
		}
		ops := make([]op, n)
		enc := NewEncoder()
		probs := make([]Prob, 8)
		for i := range probs {
			probs[i] = NewProb()
		}
		for i := range ops {
			if rng.Float64() < 0.3 {
				w := uint(1 + rng.Intn(32))
				v := rng.Uint32()
				if w < 32 {
					v &= (1 << w) - 1
				}
				ops[i] = op{raw: true, v: v, w: w}
				enc.EncodeBitsRaw(v, w)
			} else {
				ctx := rng.Intn(8)
				bit := 0
				if rng.Float64() < 0.3 {
					bit = 1
				}
				ops[i] = op{bit: bit, pctx: ctx}
				enc.EncodeBit(&probs[ctx], bit)
			}
		}
		dec := NewDecoder(enc.Finish())
		dprobs := make([]Prob, 8)
		for i := range dprobs {
			dprobs[i] = NewProb()
		}
		for _, o := range ops {
			if o.raw {
				if dec.DecodeBitsRaw(o.w) != o.v {
					return false
				}
			} else if dec.DecodeBit(&dprobs[o.pctx]) != o.bit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStream(t *testing.T) {
	enc := NewEncoder()
	out := enc.Finish()
	dec := NewDecoder(out)
	// Decoding from an empty logical stream must not panic.
	_ = dec.DecodeBitsRaw(8)
}

func TestFinishIdempotent(t *testing.T) {
	enc := NewEncoder()
	p := NewProb()
	enc.EncodeBit(&p, 1)
	a := enc.Finish()
	b := enc.Finish()
	if len(a) != len(b) {
		t.Fatalf("Finish not idempotent: %d vs %d bytes", len(a), len(b))
	}
}

func BenchmarkEncodeBit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]int, 1<<16)
	for i := range bits {
		if rng.Float64() < 0.8 {
			bits[i] = 0
		} else {
			bits[i] = 1
		}
	}
	b.SetBytes(int64(len(bits) / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		p := NewProb()
		for _, bit := range bits {
			enc.EncodeBit(&p, bit)
		}
		enc.Finish()
	}
}
