package sz

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pressio/internal/core"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
	"pressio/internal/sdrbench"
)

// smooth3D generates a smooth field resembling scientific simulation data.
func smooth3D(nx, ny, nz int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, nx*ny*nz)
	fx, fy, fz := rng.Float64()*0.3, rng.Float64()*0.3, rng.Float64()*0.3
	i := 0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				v := math.Sin(fx*float64(x))*math.Cos(fy*float64(y)) +
					0.5*math.Sin(fz*float64(z)) +
					0.01*rng.NormFloat64()
				out[i] = float32(100 * v)
				i++
			}
		}
	}
	return out
}

func maxAbsErr32(a, b []float32) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func TestAbsBoundHolds3D(t *testing.T) {
	vals := smooth3D(16, 20, 24, 1)
	for _, eb := range []float64{10, 1, 0.1, 0.01, 1e-4} {
		stream, err := CompressSlice(vals, []uint64{16, 20, 24}, Params{Mode: core.BoundAbs, Bound: eb})
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		dec, dims, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		if len(dims) != 3 || dims[0] != 16 || dims[1] != 20 || dims[2] != 24 {
			t.Fatalf("dims: %v", dims)
		}
		if worst := maxAbsErr32(vals, dec); worst > eb {
			t.Fatalf("eb=%g: max error %g exceeds bound", eb, worst)
		}
	}
}

func TestValueRangeRelBound(t *testing.T) {
	vals := smooth3D(10, 30, 30, 2)
	lo, hi := sliceRange(vals)
	rel := 1e-3
	stream, err := CompressSlice(vals, []uint64{10, 30, 30}, Params{Mode: core.BoundValueRangeRel, Bound: rel})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxAbsErr32(vals, dec); worst > rel*(hi-lo) {
		t.Fatalf("max error %g exceeds rel bound %g", worst, rel*(hi-lo))
	}
}

func TestBoundHoldsOnRandomData(t *testing.T) {
	// Pure noise is unpredictable: most points become outliers, stored
	// losslessly — the bound must still hold and ratio should be >= ~1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4)))
		}
		eb := math.Pow(10, float64(-rng.Intn(6)))
		stream, err := CompressSlice(vals, []uint64{uint64(n)}, Params{Mode: core.BoundAbs, Bound: eb})
		if err != nil {
			return false
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			return false
		}
		return maxAbsErr32(vals, dec) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Path(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 40*40)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/30) + 0.001*rng.NormFloat64()
	}
	eb := 1e-6
	stream, err := CompressSlice(vals, []uint64{40, 40}, Params{Mode: core.BoundAbs, Bound: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float64](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(vals[i]-dec[i]) > eb {
			t.Fatalf("elem %d: |%g-%g| > %g", i, vals[i], dec[i], eb)
		}
	}
}

func TestSpecialValuesPreserved(t *testing.T) {
	vals := []float32{1, 2, float32(math.NaN()), 4, float32(math.Inf(1)), 6, float32(math.Inf(-1)), 8}
	stream, err := CompressSlice(vals, []uint64{8}, Params{Mode: core.BoundAbs, Bound: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(dec[2])) {
		t.Fatalf("NaN not preserved: %v", dec[2])
	}
	if !math.IsInf(float64(dec[4]), 1) || !math.IsInf(float64(dec[6]), -1) {
		t.Fatalf("Inf not preserved: %v %v", dec[4], dec[6])
	}
}

func TestConstantField(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = 42.5
	}
	stream, err := CompressSlice(vals, []uint64{10, 100}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) > 500 {
		t.Fatalf("constant field should compress tiny, got %d bytes", len(stream))
	}
	dec, _, err := DecompressSlice[float32](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i] != 42.5 {
			t.Fatalf("constant not preserved: %v", dec[i])
		}
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	vals := smooth3D(32, 32, 32, 3)
	stream, err := CompressSlice(vals, []uint64{32, 32, 32}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(vals)*4) / float64(len(stream))
	if ratio < 4 {
		t.Fatalf("smooth field ratio %f too low", ratio)
	}
}

func TestDimensionOrderingMatters(t *testing.T) {
	// The §V claim: reversing the dims degrades the ratio. Use an
	// anisotropic field (smooth along z, rough along x).
	nx, ny, nz := 8, 16, 64
	vals := smooth3D(nx, ny, nz, 7)
	correct, err := CompressSlice(vals, []uint64{uint64(nx), uint64(ny), uint64(nz)},
		Params{Mode: core.BoundAbs, Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	reversed, err := CompressSlice(vals, []uint64{uint64(nz), uint64(ny), uint64(nx)},
		Params{Mode: core.BoundAbs, Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(reversed) <= len(correct) {
		t.Fatalf("reversed dims should compress worse: correct=%d reversed=%d", len(correct), len(reversed))
	}
}

func TestFlattenTo1DMatters(t *testing.T) {
	vals := smooth3D(24, 24, 24, 8)
	n := uint64(len(vals))
	three, err := CompressSlice(vals, []uint64{24, 24, 24}, Params{Mode: core.BoundAbs, Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	one, err := CompressSlice(vals, []uint64{n}, Params{Mode: core.BoundAbs, Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) <= len(three) {
		t.Fatalf("1-D treatment should compress worse: 3d=%d 1d=%d", len(three), len(one))
	}
}

func TestHigherRankBatch(t *testing.T) {
	vals := smooth3D(4*6, 8, 10, 9) // treat as 4-D {4,6,8,10}
	stream, err := CompressSlice(vals, []uint64{4, 6, 8, 10}, Params{Mode: core.BoundAbs, Bound: 0.05})
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
	if worst := maxAbsErr32(vals, dec); worst > 0.05 {
		t.Fatalf("max error %g", worst)
	}
}

func TestGlobalAPIRequiresInit(t *testing.T) {
	Finalize()
	if _, err := CompressFloat32([]float32{1, 2, 3}, []uint64{3}); err == nil {
		t.Fatal("expected ErrNotInitialized")
	}
	Init(Params{Mode: core.BoundAbs, Bound: 0.1})
	defer Finalize()
	stream, err := CompressFloat32([]float32{1, 2, 3}, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressFloat32(stream)
	if err != nil || len(dec) != 3 {
		t.Fatalf("decompress: %v %v", dec, err)
	}
}

func TestParallelMatchesSerialBound(t *testing.T) {
	vals := smooth3D(32, 16, 16, 11)
	dims := []uint64{32, 16, 16}
	eb := 0.01
	stream, err := CompressParallel(vals, dims, Params{Mode: core.BoundAbs, Bound: eb}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, outDims, err := DecompressParallel[float32](stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if outDims[0] != 32 || outDims[1] != 16 || outDims[2] != 16 {
		t.Fatalf("dims %v", outDims)
	}
	if worst := maxAbsErr32(vals, dec); worst > eb {
		t.Fatalf("parallel max error %g exceeds %g", worst, eb)
	}
}

func TestParallelRelBoundUsesGlobalRange(t *testing.T) {
	// With a value-range-relative bound the parallel path must resolve the
	// range over the whole field, not per block.
	vals := make([]float32, 64*8)
	for i := range vals {
		vals[i] = float32(i / 64) // block-constant ramp
	}
	dims := []uint64{64, 8}
	rel := 1e-3
	stream, err := CompressParallel(vals, dims, Params{Mode: core.BoundValueRangeRel, Bound: rel}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressParallel[float32](stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sliceRange(vals)
	if worst := maxAbsErr32(vals, dec); worst > rel*float64(hi-lo) {
		t.Fatalf("max error %g exceeds global rel bound %g", worst, rel*(hi-lo))
	}
}

func TestParallelHeader(t *testing.T) {
	vals := smooth3D(20, 10, 10, 12)
	stream, err := CompressParallel(vals, []uint64{20, 10, 10}, Params{Mode: core.BoundAbs, Bound: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dtype, dims, err := ParallelHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if dtype != core.DTypeFloat32 || dims[0] != 20 {
		t.Fatalf("header: %v %v", dtype, dims)
	}
}

func TestCorruptStreams(t *testing.T) {
	vals := smooth3D(8, 8, 8, 13)
	stream, err := CompressSlice(vals, []uint64{8, 8, 8}, Params{Mode: core.BoundAbs, Bound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, 5, 10, len(stream) / 2, len(stream) - 1} {
		if _, _, err := DecompressSlice[float32](stream[:cut]); err == nil {
			t.Fatalf("truncation at %d: expected error", cut)
		}
	}
	if _, _, err := DecompressSlice[float64](stream); err == nil {
		t.Fatal("expected dtype mismatch error")
	}
	garbage := append([]byte("SZG1"), 0xff, 0xff, 0xff)
	if _, _, err := DecompressSlice[float32](garbage); err == nil {
		t.Fatal("expected garbage error")
	}
}

func TestInvalidParams(t *testing.T) {
	vals := []float32{1, 2, 3}
	cases := []Params{
		{Mode: core.BoundAbs, Bound: 0},
		{Mode: core.BoundAbs, Bound: -1},
		{Mode: core.BoundAbs, Bound: math.NaN()},
		{Mode: core.BoundAbs, Bound: math.Inf(1)},
	}
	for i, p := range cases {
		if _, err := CompressSlice(vals, []uint64{3}, p); err == nil {
			t.Fatalf("case %d: expected parameter error", i)
		}
	}
	if _, err := CompressSlice(vals, []uint64{4}, Params{Mode: core.BoundAbs, Bound: 1}); err == nil {
		t.Fatal("expected dims/length mismatch error")
	}
	if _, err := CompressSlice(vals, []uint64{0}, Params{Mode: core.BoundAbs, Bound: 1}); err == nil {
		t.Fatal("expected zero-extent error")
	}
}

func TestPluginRoundTrip(t *testing.T) {
	vals := smooth3D(16, 16, 16, 21)
	in := core.FromFloat32s(vals, 16, 16, 16)
	for _, name := range []string{"sz", "sz_threadsafe", "sz_omp"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := core.NewOptions().SetValue(core.KeyAbs, 0.01)
		if err := c.SetOptions(opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		dec, err := core.Decompress(c, comp, core.DTypeFloat32, 16, 16, 16)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if worst := maxAbsErr32(vals, dec.Float32s()); worst > 0.01 {
			t.Fatalf("%s: max error %g", name, worst)
		}
	}
}

func TestPluginIntrospection(t *testing.T) {
	c, _ := core.NewCompressor("sz")
	opts := c.Options()
	if !opts.Has("sz:error_bound_mode_str") {
		t.Fatal("missing sz:error_bound_mode_str")
	}
	cfg := c.Configuration()
	if s, _ := cfg.GetString(core.KeyThreadSafe); s != "single" {
		t.Fatalf("sz thread safety: %q", s)
	}
	shared, _ := cfg.GetInt32(core.KeyShared)
	if shared != 1 {
		t.Fatal("sz should report a shared instance")
	}
	ts, _ := core.NewCompressor("sz_threadsafe")
	if s, _ := ts.Configuration().GetString(core.KeyThreadSafe); s != "multiple" {
		t.Fatalf("sz_threadsafe thread safety: %q", s)
	}
}

func TestPluginRejectsIntInput(t *testing.T) {
	c, _ := core.NewCompressor("sz")
	in := core.FromInt32s([]int32{1, 2, 3})
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.1)); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Compress(c, in); err == nil {
		t.Fatal("expected dtype error for int input")
	}
}

func BenchmarkCompress3D(b *testing.B) {
	vals := smooth3D(64, 64, 64, 1)
	dims := []uint64{64, 64, 64}
	p := Params{Mode: core.BoundValueRangeRel, Bound: 1e-3}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(vals, dims, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress3D(b *testing.B) {
	vals := smooth3D(64, 64, 64, 1)
	stream, err := CompressSlice(vals, []uint64{64, 64, 64}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3})
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

// BenchmarkCompressHACC and BenchmarkDecompressHACC time sz on lib_codecs'
// hacc-x field: 131,072 float32s at abs 1e-3.
func BenchmarkCompressHACC(b *testing.B) {
	d := haccX(20210104)
	b.SetBytes(int64(d.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(d.Float32s(), d.Dims(), haccAbs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressHACC(b *testing.B) {
	d := haccX(20210104)
	stream, err := CompressSlice(d.Float32s(), d.Dims(), haccAbs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressSlice[float32](stream); err != nil {
			b.Fatal(err)
		}
	}
}

// serveLarge is the field of the repository benchmark's serve_large
// workload, which pressiod compresses and decompresses with sz at abs 1e-3.
func serveLarge() *core.Data { return sdrbench.ScaleLetKF(16, 128, 128, 20210101) }

var serveLargeAbs = Params{Mode: core.BoundAbs, Bound: 1e-3}

func BenchmarkCompressServeLarge(b *testing.B) {
	d := serveLarge()
	b.SetBytes(int64(d.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(d.Float32s(), d.Dims(), serveLargeAbs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressServeLarge(b *testing.B) {
	d := serveLarge()
	stream, err := CompressSlice(d.Float32s(), d.Dims(), serveLargeAbs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressSlice[float32](stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressParallel(b *testing.B) {
	vals := smooth3D(64, 64, 64, 1)
	dims := []uint64{64, 64, 64}
	p := Params{Mode: core.BoundValueRangeRel, Bound: 1e-3}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressParallel(vals, dims, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHeaderCannotBuyAllocation hands the decoder streams of under 100
// bytes whose headers declare 2^40 elements: the scratch and output it
// sizes are held to what the stream's own bytes can inflate to, so it
// refuses them with ErrCorrupt having allocated little.
func TestHeaderCannotBuyAllocation(t *testing.T) {
	body, err := lossless.Deflate(make([]byte, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		nOut, huffLen uint64
	}{
		{"outliers past the body", 1 << 39, 64},
		{"codes past the body", 0, 64},
	} {
		hdr, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{1 << 20, 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{math.Float64bits(1e-3), 32768, c.nOut, c.huffLen} {
			hdr = binary.AppendUvarint(hdr, v)
		}
		stream := append(hdr, body...)
		if len(stream) >= 100 {
			t.Fatalf("%s: stream is %d bytes", c.name, len(stream))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = DecompressSlice[float32](stream)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: a %d-byte stream allocated %d bytes", c.name, len(stream), alloc)
		}
	}
}

// TestHuffmanAlphabetPastRadius hands the decoder streams whose Huffman
// header declares an alphabet past the quantizer's 2·radius codes: the
// declaration is refused, so a header cannot size the code tables past what
// the encoder could have written.
func TestHuffmanAlphabetPastRadius(t *testing.T) {
	const radius = 4
	stream := func(alphabet uint32) []byte {
		codes := []uint32{radius, radius, radius, radius, radius, radius, radius, radius}
		huff, err := huffman.Encode(codes, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		body, err := lossless.Deflate(huff, 1)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{uint64(len(codes))})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{math.Float64bits(1e-3), radius, 0, uint64(len(huff))} {
			hdr = binary.AppendUvarint(hdr, v)
		}
		return append(hdr, body...)
	}
	if _, _, err := DecompressSlice[float32](stream(2 * radius)); err != nil {
		t.Fatalf("alphabet 2·radius: %v", err)
	}
	for _, alphabet := range []uint32{2*radius + 1, 1 << 24} {
		if _, _, err := DecompressSlice[float32](stream(alphabet)); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("alphabet %d past 2·radius = %d: err %v, want ErrCorrupt", alphabet, 2*radius, err)
		}
	}
}

// hugeTableStream returns a float32 SZG1 stream of one value at the largest
// radius, 2^23, whose Huffman length table is runs, each a (code length,
// symbols) pair. Its 3-byte body holds symbol radius+1 coded in 24 bits, as
// a table of 2^24 codes of 24 bits codes it: the value 2·bound.
func hugeTableStream(tb testing.TB, runs ...[2]uint64) []byte {
	tb.Helper()
	const radius = 1 << 23
	var hdr []byte
	for _, v := range []uint64{2 * radius, 1, 2 * radius} { // alphabet, count, table size
		hdr = binary.AppendUvarint(hdr, v)
	}
	for _, r := range runs {
		hdr = binary.AppendUvarint(append(hdr, byte(r[0])), r[1])
	}
	huff := append(binary.AppendUvarint(nil, uint64(len(hdr))), hdr...)
	code := bits.Reverse32(radius+1) >> 8 // the body is LSB-first
	huff = append(huff, byte(code), byte(code>>8), byte(code>>16))
	body, err := lossless.Deflate(huff, 1)
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range []uint64{math.Float64bits(1e-3), radius, 0, uint64(len(huff))} {
		stream = binary.AppendUvarint(stream, v)
	}
	return append(stream, body...)
}

// oneRunStream is 47 bytes whose Huffman table is one run of 2^24 codes of
// 24 bits; overSubscribedStream is 54 bytes whose table adds two 1-bit codes
// at either end of that run, more codes than 24 bits can tell apart.
func oneRunStream(tb testing.TB) []byte { return hugeTableStream(tb, [2]uint64{24, 1 << 24}) }

func overSubscribedStream(tb testing.TB) []byte {
	return hugeTableStream(tb, [2]uint64{1, 1}, [2]uint64{24, 1<<24 - 2}, [2]uint64{1, 1})
}

// TestHuffmanTableCostSetByStream decodes streams of about 50 bytes whose
// Huffman tables declare 2^24 symbols: the decoder's tables follow the
// table's runs, not the alphabet, so the one decodes to its value and the
// other is refused as over-subscribed, each allocating little.
func TestHuffmanTableCostSetByStream(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
		ok     bool
	}{
		{"one run", oneRunStream(t), true},
		{"over-subscribed", overSubscribedStream(t), false},
	} {
		// Drop pooled scratch, which could hold a table this call would
		// otherwise have to allocate.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vals, _, err := DecompressSlice[float32](c.stream)
		runtime.ReadMemStats(&after)
		switch {
		case c.ok && (err != nil || len(vals) != 1 || vals[0] != float32(2e-3)):
			t.Errorf("%s: decoded %v, err %v; want [%v]", c.name, vals, err, float32(2e-3))
		case !c.ok && !errors.Is(err, core.ErrCorrupt):
			t.Errorf("%s: err %v, want ErrCorrupt", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: a %d-byte stream allocated %d bytes", c.name, len(c.stream), alloc)
		}
	}
}
