package fpzip

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pressio/internal/core"
	"pressio/internal/rangecoder"
	"pressio/internal/sdrbench"
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
	// FPZ2/FPZ3 framing: the raw-bit segment may not end early, and the
	// declared range-coded length may not run past the stream.
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
	// An all-ones code lies past the class model's total: no encoder
	// writes it.
	pastTotal := append(binary.AppendUvarint(stream[:hdrLen:hdrLen], 5), 0, 0xff, 0xff, 0xff, 0xff)
	if _, _, err := DecompressSlice[float32](pastTotal); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("class code past the model's total: err %v, want ErrCorrupt", err)
	}
}

// TestDensityCeiling pins the per-version bomb check. The class model codes
// a constant field's exact predictions denser than the unary code can, past
// FPZ2's ceiling of 2048 values per rc byte, so FPZ3's ceiling follows from
// the model's constants instead; a stream declaring more is still refused.
func TestDensityCeiling(t *testing.T) {
	const n = 1 << 22
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = 3.5
	}
	stream, err := CompressSlice(vals, []uint64{n}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, hdrLen, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if rcLen, _ := binary.Uvarint(stream[hdrLen:]); n <= (rcLen+2)*2048 {
		t.Fatalf("%d values in %d rc bytes: no longer denser than FPZ2's ceiling", n, rcLen)
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatalf("genuine constant stream refused: %v", err)
	}
	for i, v := range dec {
		if v != 3.5 {
			t.Fatalf("elem %d: %v", i, v)
		}
	}

	// One rc byte can carry at most MaxSymbolsPerByte classes.
	declared := uint64(3*rangecoder.MaxSymbolsPerByte + 1)
	bomb, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{declared})
	if err != nil {
		t.Fatal(err)
	}
	bomb = append(bomb, 32, 1, 0)
	if _, _, err := DecompressSlice[float32](bomb); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("%d-byte stream declaring %d values: err %v, want the density check's ErrCorrupt", len(bomb), declared, err)
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

var benchSink []byte

// BenchmarkSDRBench compresses and decompresses, losslessly, the four
// synthetic SDRBench fields at the size and seeds the benchmark's lib_codecs
// workload uses by default (scale 2, seed 20210101 plus the field's index).
// Each sub-benchmark reports the stream size as stream_bytes.
func BenchmarkSDRBench(b *testing.B) {
	for i, name := range sdrbench.Names() {
		d, _ := sdrbench.Generate(name, 2, 20210101+int64(i))
		vals, dims := d.Float32s(), d.Dims()
		stream, err := CompressSlice(vals, dims, Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(vals)))
			for b.Loop() {
				benchSink, _ = CompressSlice(vals, dims, Params{})
			}
			b.ReportMetric(float64(len(stream)), "stream_bytes")
		})
		b.Run(name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(4 * len(vals)))
			for b.Loop() {
				if _, _, err := DecompressSlice[float32](stream); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(stream)), "stream_bytes")
		})
	}
}
