package fpzip

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pressio/internal/core"
)

func TestOrdMappingRoundTrip32(t *testing.T) {
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		back := ordToF32(f32ToOrd(v))
		return math.Float32bits(back) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestOrdMappingRoundTrip64(t *testing.T) {
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		return math.Float64bits(ordToF64(f64ToOrd(v))) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestOrdMappingMonotone(t *testing.T) {
	vals := []float32{float32(math.Inf(-1)), -1e30, -1, -1e-30, 0, 1e-30, 1, 1e30, float32(math.Inf(1))}
	for i := 1; i < len(vals); i++ {
		if f32ToOrd(vals[i-1]) >= f32ToOrd(vals[i]) {
			t.Fatalf("mapping not monotone at %v < %v", vals[i-1], vals[i])
		}
	}
}

func smooth(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)/20)*500 + rng.NormFloat64())
	}
	return out
}

func TestLosslessRoundTrip32(t *testing.T) {
	vals := smooth(30*40, 1)
	stream, err := CompressSlice(vals, []uint64{30, 40}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	dec, dims, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 30 || dims[1] != 40 {
		t.Fatalf("dims %v", dims)
	}
	for i := range vals {
		if math.Float32bits(dec[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("elem %d: %x vs %x", i, math.Float32bits(dec[i]), math.Float32bits(vals[i]))
		}
	}
}

func TestLosslessRoundTrip64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	stream, err := CompressSlice(vals, []uint64{10, 10, 10}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float64](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(dec[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("elem %d mismatch", i)
		}
	}
}

func TestLosslessPropertyArbitraryBits(t *testing.T) {
	// Lossless mode must round-trip any bit pattern, including NaN and Inf.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float32, len(raw))
		for i, b := range raw {
			vals[i] = math.Float32frombits(b)
		}
		stream, err := CompressSlice(vals, []uint64{uint64(len(vals))}, Params{})
		if err != nil {
			return false
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Float32bits(dec[i]) != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyPrecisionMonotone(t *testing.T) {
	vals := smooth(4096, 3)
	dims := []uint64{64, 64}
	var prevSize int = 1 << 30
	var prevErr float64
	for _, prec := range []uint{32, 24, 16, 10} {
		stream, err := CompressSlice(vals, dims, Params{Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range vals {
			if d := math.Abs(float64(dec[i]-vals[i]) / math.Max(1e-30, math.Abs(float64(vals[i])))); d > worst {
				worst = d
			}
		}
		if len(stream) > prevSize {
			t.Fatalf("prec %d: stream grew (%d > %d)", prec, len(stream), prevSize)
		}
		if worst < prevErr {
			t.Fatalf("prec %d: error should not shrink with less precision", prec)
		}
		prevSize, prevErr = len(stream), worst
	}
	// 16 mantissa-ish bits keep relative error small.
	stream, _ := CompressSlice(vals, dims, Params{Precision: 20})
	dec, _, _ := DecompressSlice[float32](stream)
	for i := range vals {
		rel := math.Abs(float64(dec[i]-vals[i])) / math.Max(1e-3, math.Abs(float64(vals[i])))
		if rel > 1e-2 {
			t.Fatalf("elem %d rel error %g too large for 20-bit precision", i, rel)
		}
	}
}

func TestSmoothCompressesWell(t *testing.T) {
	vals := smooth(1<<14, 4)
	stream, err := CompressSlice(vals, []uint64{128, 128}, Params{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(vals)*4) / float64(len(stream)); ratio < 3 {
		t.Fatalf("ratio %f too low", ratio)
	}
}

func TestInvalidParams(t *testing.T) {
	vals := []float32{1, 2}
	if _, err := CompressSlice(vals, []uint64{2}, Params{Precision: 40}); err == nil {
		t.Fatal("expected precision error for f32")
	}
	if _, err := CompressSlice(vals, []uint64{3}, Params{}); err == nil {
		t.Fatal("expected dims mismatch")
	}
}

func TestCorruptStreams(t *testing.T) {
	vals := smooth(64, 5)
	stream, err := CompressSlice(vals, []uint64{64}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, 5} {
		if _, _, err := DecompressSlice[float32](stream[:cut]); err == nil {
			t.Fatalf("truncation %d: expected error", cut)
		}
	}
	if _, _, err := DecompressSlice[float64](stream); err == nil {
		t.Fatal("expected dtype mismatch")
	}
	// FPZ2 framing: the raw-bit segment may not end early, and the declared
	// range-coded length may not run past the stream.
	if _, _, err := DecompressSlice[float32](stream[:len(stream)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated raw-bit segment: err %v, want ErrCorrupt", err)
	}
	_, hdrLen, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	long := binary.AppendUvarint(stream[:hdrLen:hdrLen], uint64(len(stream)))
	if _, _, err := DecompressSlice[float32](append(long, stream[hdrLen:]...)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rcLen past the end: err %v, want ErrCorrupt", err)
	}
}

func TestPluginFloatOnly(t *testing.T) {
	c, err := core.NewCompressor("fpzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Compress(c, core.FromInt32s([]int32{1, 2, 3})); err == nil {
		t.Fatal("fpzip must reject integer data")
	}
	vals := smooth(256, 6)
	in := core.FromFloat32s(vals, 16, 16)
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(in) {
		t.Fatal("default (lossless) round trip failed")
	}
}

func BenchmarkCompressLossless(b *testing.B) {
	vals := smooth(1<<16, 1)
	dims := []uint64{256, 256}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(vals, dims, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
