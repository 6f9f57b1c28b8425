package zfp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pressio/internal/core"
)

func TestLiftNearInverse(t *testing.T) {
	// The zfp lifting transform is only approximately invertible: the
	// inverse may lose one integer ulp per element, absorbed by the guard
	// bits. Verify the reconstruction error is tightly bounded.
	f := func(a, b, c, d int32) bool {
		p := &[64]int64{int64(a), int64(b), int64(c), int64(d)}
		orig := *p
		fwdLift(p, 0, 1)
		invLift(p, 0, 1)
		for i := range p[:4] {
			if diff := p[i] - orig[i]; diff < -4 || diff > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationsValid(t *testing.T) {
	for d := 1; d <= 3; d++ {
		size := 1 << (2 * d)
		perm := perms[d][:size]
		seen := make([]bool, size)
		for _, p := range perm {
			if int(p) >= size || seen[p] {
				t.Fatalf("d=%d: invalid perm %v", d, perm)
			}
			seen[p] = true
		}
		// Sequency order: total degree must be nondecreasing.
		deg := func(i uint8) uint8 { return i&3 + (i>>2)&3 + (i>>4)&3 }
		for i := 1; i < size; i++ {
			if deg(perm[i]) < deg(perm[i-1]) {
				t.Fatalf("d=%d: perm not ordered by degree", d)
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	f := func(x int64) bool { return nb2int(int2nb(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, -1, math.MaxInt64 / 2, math.MinInt64 / 2} {
		if nb2int(int2nb(x)) != x {
			t.Fatalf("negabinary failed for %d", x)
		}
	}
}

func TestEncodeIntsLosslessWhenUnbounded(t *testing.T) {
	// With full precision and unlimited bits the bit-plane coder is
	// lossless.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var data, got, planes [64]uint64
		for i := range data[:16] {
			data[i] = rng.Uint64() >> uint(rng.Intn(60))
		}
		w := newTestWriter()
		enc := data // encodeInts clobbers its input
		encodeInts(w, &enc, 16, 64, 64, hugeBits)
		decodeInts(newTestReader(w), &got, &planes, 16, 64, 64, hugeBits)
		return got == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func smoothField(nz, ny, nx int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				out[i] = float32(50*math.Sin(float64(x)/9)*math.Cos(float64(y)/7) +
					10*math.Sin(float64(z)/5) + 0.05*rng.NormFloat64())
				i++
			}
		}
	}
	return out
}

func maxErr32(a, b []float32) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func TestAccuracyModeBoundHolds(t *testing.T) {
	vals := smoothField(17, 21, 33, 1) // deliberately non-multiple-of-4 dims
	dims := []uint64{17, 21, 33}
	for _, tol := range []float64{10, 1, 0.1, 1e-3, 1e-5} {
		stream, err := CompressSlice(vals, dims, Params{Mode: ModeFixedAccuracy, Tolerance: tol})
		if err != nil {
			t.Fatalf("tol=%g: %v", tol, err)
		}
		dec, outDims, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatalf("tol=%g: %v", tol, err)
		}
		if len(outDims) != 3 || outDims[2] != 33 {
			t.Fatalf("dims %v", outDims)
		}
		if worst := maxErr32(vals, dec); worst > tol {
			t.Fatalf("tol=%g: max error %g exceeds tolerance", tol, worst)
		}
	}
}

func TestAccuracyModeFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 40*40)
	for i := range vals {
		vals[i] = math.Exp(math.Sin(float64(i)/100)) * (1 + 0.001*rng.NormFloat64())
	}
	dims := []uint64{40, 40}
	tol := 1e-7
	stream, err := CompressSlice(vals, dims, Params{Mode: ModeFixedAccuracy, Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float64](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(vals[i]-dec[i]) > tol {
			t.Fatalf("elem %d: error %g > %g", i, math.Abs(vals[i]-dec[i]), tol)
		}
	}
}

func TestAccuracyBoundPropertyRandomBlocks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(200)
		vals := make([]float32, n)
		scale := math.Pow(10, float64(rng.Intn(10)-5))
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * scale)
		}
		tol := scale * math.Pow(10, float64(-rng.Intn(5)))
		stream, err := CompressSlice(vals, []uint64{uint64(n)}, Params{Mode: ModeFixedAccuracy, Tolerance: tol})
		if err != nil {
			return false
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			return false
		}
		return maxErr32(vals, dec) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedRateSizeExact(t *testing.T) {
	vals := smoothField(16, 16, 16, 3)
	dims := []uint64{16, 16, 16}
	for _, rate := range []float64{4, 8, 16} {
		stream, err := CompressSlice(vals, dims, Params{Mode: ModeFixedRate, Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		blocks := 4 * 4 * 4
		wantBits := uint64(rate*64+0.5) * uint64(blocks)
		gotBits := uint64(len(stream)) * 8 // includes header + final byte padding
		slack := uint64(64*8 + 64)
		if gotBits < wantBits || gotBits > wantBits+slack {
			t.Fatalf("rate %g: got %d bits, want about %d", rate, gotBits, wantBits)
		}
		if _, _, err := DecompressSlice[float32](stream); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFixedRateQualityImprovesWithRate(t *testing.T) {
	vals := smoothField(16, 16, 16, 4)
	dims := []uint64{16, 16, 16}
	var prev float64 = math.Inf(1)
	for _, rate := range []float64{2, 8, 24} {
		stream, err := CompressSlice(vals, dims, Params{Mode: ModeFixedRate, Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatal(err)
		}
		worst := maxErr32(vals, dec)
		if worst > prev+1e-12 {
			t.Fatalf("rate %g: error %g worse than lower rate (%g)", rate, worst, prev)
		}
		prev = worst
	}
	if prev > 1e-3 {
		t.Fatalf("24 bits/value should be near-exact, error %g", prev)
	}
}

func TestFixedPrecisionMode(t *testing.T) {
	vals := smoothField(8, 12, 16, 5)
	dims := []uint64{8, 12, 16}
	stream, err := CompressSlice(vals, dims, Params{Mode: ModeFixedPrecision, Precision: 24})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	if worst := maxErr32(vals, dec); worst > (hi-lo)*1e-3 {
		t.Fatalf("24-plane precision too lossy: %g", worst)
	}
}

func TestZeroBlocksCompressTiny(t *testing.T) {
	vals := make([]float32, 64*64)
	stream, err := CompressSlice(vals, []uint64{64, 64}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) > 200 {
		t.Fatalf("all-zero field should compress to ~1 bit/block, got %d bytes", len(stream))
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec {
		if v != 0 {
			t.Fatal("zeros not preserved")
		}
	}
}

func TestPaddingInefficiency(t *testing.T) {
	// §V: passing an A×B×1 shape forces 3-D blocks that are 15/16 padding;
	// the same bytes as A×B 2-D compress substantially better.
	vals := smoothField(1, 64, 64, 6)
	p := Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3}
	as3d, err := CompressSlice(vals, []uint64{64, 64, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	as2d, err := CompressSlice(vals, []uint64{64, 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(as2d) >= len(as3d) {
		t.Fatalf("A×B×1 should be less efficient than A×B: 3d=%d 2d=%d", len(as3d), len(as2d))
	}
}

func TestHigherRankBatch(t *testing.T) {
	vals := smoothField(3*8, 8, 8, 7)
	stream, err := CompressSlice(vals, []uint64{3, 8, 8, 8}, Params{Mode: ModeFixedAccuracy, Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dec, dims, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 4 {
		t.Fatalf("dims %v", dims)
	}
	if worst := maxErr32(vals, dec); worst > 0.01 {
		t.Fatalf("max error %g", worst)
	}
}

func TestInvalidParams(t *testing.T) {
	vals := []float32{1, 2, 3, 4}
	bad := []Params{
		{Mode: ModeFixedAccuracy, Tolerance: 0},
		{Mode: ModeFixedAccuracy, Tolerance: -2},
		{Mode: ModeFixedAccuracy, Tolerance: math.NaN()},
		{Mode: ModeFixedRate, Rate: 0},
		{Mode: ModeFixedRate, Rate: -4},
		{Mode: ModeFixedPrecision, Precision: 0},
		{Mode: ModeFixedPrecision, Precision: 99},
		{Mode: Mode(42)},
	}
	for i, p := range bad {
		if _, err := CompressSlice(vals, []uint64{4}, p); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestCorruptStreams(t *testing.T) {
	vals := smoothField(4, 8, 8, 8)
	stream, err := CompressSlice(vals, []uint64{4, 8, 8}, Params{Mode: ModeFixedAccuracy, Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 4, 6} {
		if _, _, err := DecompressSlice[float32](stream[:cut]); err == nil {
			t.Fatalf("truncation at %d: expected error", cut)
		}
	}
	if _, _, err := DecompressSlice[float64](stream); err == nil {
		t.Fatal("expected dtype mismatch")
	}
}

// TestTruncatedBodyRejected: ZFG1 carries no payload length and the reader
// supplies zeros past the end, so a stream cut anywhere inside its blocks
// used to decode "successfully" into zeros from the cut on.
func TestTruncatedBodyRejected(t *testing.T) {
	vals := smoothField(16, 16, 16, 8)
	dims := []uint64{16, 16, 16}
	for _, p := range []Params{
		{Mode: ModeFixedAccuracy, Tolerance: 1e-3},
		{Mode: ModeFixedRate, Rate: 8},
		{Mode: ModeFixedPrecision, Precision: 12},
	} {
		stream, err := CompressSlice(vals, dims, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecompressSlice[float32](stream); err != nil {
			t.Fatalf("%s: whole stream: %v", p.Mode, err)
		}
		_, _, hdr, err := ParseHeader(stream)
		if err != nil {
			t.Fatal(err)
		}
		// Every stream ends in a byte that holds at least one coded bit, so
		// any shorter body is short of bits.
		for _, cut := range []int{hdr, hdr + 1, 40, len(stream) / 2, len(stream) - 9, len(stream) - 1} {
			if _, _, err := DecompressSlice[float32](stream[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %d-byte stream cut to %d: err = %v, want ErrCorrupt", p.Mode, len(stream), cut, err)
			}
		}
	}
}

func TestPluginRoundTrip(t *testing.T) {
	vals := smoothField(12, 12, 12, 9)
	in := core.FromFloat32s(vals, 12, 12, 12)
	c, err := core.NewCompressor("zfp")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 12, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr32(vals, dec.Float32s()); worst > 0.01 {
		t.Fatalf("max error %g", worst)
	}
}

func TestPluginModes(t *testing.T) {
	vals := smoothField(8, 8, 8, 10)
	in := core.FromFloat32s(vals, 8, 8, 8)
	c, _ := core.NewCompressor("zfp")
	// Rate mode through zfp:rate.
	if err := c.SetOptions(core.NewOptions().
		SetValue("zfp:mode", "rate").SetValue("zfp:rate", 8.0)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.ByteLen(); got > uint64(len(vals))+200 {
		t.Fatalf("rate 8 should be ~1 byte/value, got %d bytes", got)
	}
	// Precision mode.
	if err := c.SetOptions(core.NewOptions().
		SetValue("zfp:mode", "precision").SetValue("zfp:precision", uint64(20))); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Compress(c, in); err != nil {
		t.Fatal(err)
	}
	// Value-range relative bound resolves against the input range.
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyRel, 1e-4)); err != nil {
		t.Fatal(err)
	}
	comp, err = core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := core.ValueRange(in)
	if worst := maxErr32(vals, dec.Float32s()); worst > 1e-4*(hi-lo) {
		t.Fatalf("rel bound violated: %g > %g", worst, 1e-4*(hi-lo))
	}
}

func BenchmarkCompressAccuracy(b *testing.B) {
	vals := smoothField(64, 64, 64, 1)
	dims := []uint64{64, 64, 64}
	p := Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(vals, dims, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressAccuracy(b *testing.B) {
	vals := smoothField(64, 64, 64, 1)
	stream, err := CompressSlice(vals, []uint64{64, 64, 64}, Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressSlice[float32](stream); err != nil {
			b.Fatal(err)
		}
	}
}
