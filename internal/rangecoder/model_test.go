package rangecoder

import (
	"errors"
	"math/rand"
	"testing"
)

// checkModel asserts the invariants DecodeSymbol's search relies on: every
// symbol owns at least one unit, the intervals tile the total, and each
// lookup entry names the symbol holding its bucket's first value.
func checkModel(t *testing.T, m *Model) {
	t.Helper()
	if m.cum[0] != 0 || m.cum[Symbols] != modelTotal {
		t.Fatalf("cum spans [%d, %d), want [0, %d)", m.cum[0], m.cum[Symbols], modelTotal)
	}
	for s := 0; s < Symbols; s++ {
		if m.cum[s+1] <= m.cum[s] {
			t.Fatalf("symbol %d has an empty interval", s)
		}
	}
	for j, s := range m.lookup {
		v := uint32(j) << lookupShift
		if int(s) >= Symbols || m.cum[s] > v || v >= m.cum[s+1] {
			t.Fatalf("lookup[%d] = %d does not hold %d", j, s, v)
		}
	}
}

func TestSymbolsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const count = 20000 // well past the first halving (~4k symbols at countInc 16)
	for _, c := range []struct {
		name string
		next func() int
	}{
		{"single", func() int { return 7 }},
		{"single-first", func() int { return 0 }},
		{"single-last", func() int { return Symbols - 1 }},
		{"skewed", func() int { return min(Symbols-1, int(rng.ExpFloat64()*3)) }},
		{"drifting", func() int { return min(Symbols-1, int(rng.ExpFloat64()*2)+rng.Intn(3)*20) }},
		{"uniform", func() int { return rng.Intn(Symbols) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			syms := make([]int, count)
			for i := range syms {
				syms[i] = c.next()
			}
			enc, em := NewEncoder(), NewModel()
			// Interleave binary decisions: both codes share one coder state.
			p := NewProb()
			for i, s := range syms {
				enc.EncodeSymbol(em, s)
				if i%5 == 0 {
					enc.EncodeBit(&p, s&1)
				}
			}
			out := enc.Finish()
			dec, dm := NewDecoder(out), NewModel()
			q := NewProb()
			rebuilds := 0
			for i, want := range syms {
				got, err := dec.DecodeSymbol(dm)
				if err != nil || got != want {
					t.Fatalf("symbol %d: got %d, %v, want %d", i, got, err, want)
				}
				if dm.left == dm.period {
					rebuilds++
					checkModel(t, dm)
				}
				if i%5 == 0 && dec.DecodeBit(&q) != want&1 {
					t.Fatalf("bit after symbol %d differs", i)
				}
			}
			if rebuilds < count/maxPeriod {
				t.Fatalf("only %d rebuilds in %d symbols", rebuilds, count)
			}
			if count > len(out)*MaxSymbolsPerByte {
				t.Fatalf("%d symbols in %d bytes beats the %d/byte ceiling", count, len(out), MaxSymbolsPerByte)
			}
		})
	}
}

// TestDecodeSymbolPastTotal hands the decoder a code no encoder can write,
// all ones: code/r lands past the total, which is an error, not a symbol.
func TestDecodeSymbolPastTotal(t *testing.T) {
	dec := NewDecoder([]byte{0, 0xff, 0xff, 0xff, 0xff})
	if s, err := dec.DecodeSymbol(NewModel()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got symbol %d, err %v; want ErrCorrupt", s, err)
	}
}

// FuzzDecodeSymbol decodes arbitrary bytes as symbols: it must never panic
// and never yield a symbol outside the alphabet.
func FuzzDecodeSymbol(f *testing.F) {
	enc, m := NewEncoder(), NewModel()
	for i := 0; i < 300; i++ {
		enc.EncodeSymbol(m, i%7*9)
	}
	f.Add(enc.Finish())
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, m := NewDecoder(b), NewModel()
		for i := 0; i < 4*len(b)+64; i++ {
			s, err := dec.DecodeSymbol(m)
			if err != nil {
				return
			}
			if s < 0 || s >= Symbols {
				t.Fatalf("symbol %d outside an alphabet of %d", s, Symbols)
			}
		}
	})
}

func BenchmarkSymbols(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 1<<16)
	for i := range syms {
		syms[i] = min(64, int(rng.ExpFloat64()*6))
	}
	enc, m := NewEncoder(), NewModel()
	for _, s := range syms {
		enc.EncodeSymbol(m, s)
	}
	coded := enc.Finish()
	b.Run("encode", func(b *testing.B) {
		for b.Loop() {
			enc, m := NewEncoder(), NewModel()
			for _, s := range syms {
				enc.EncodeSymbol(m, s)
			}
			enc.Finish()
		}
	})
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			dec, m := NewDecoder(coded), NewModel()
			for range syms {
				if _, err := dec.DecodeSymbol(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
