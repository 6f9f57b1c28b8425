package mgard

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

func smooth(dims []uint64, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	total := 1
	for _, d := range dims {
		total *= int(d)
	}
	out := make([]float32, total)
	for i := range out {
		out[i] = float32(30*math.Sin(float64(i)/40) + rng.NormFloat64()*0.02)
	}
	return out
}

func maxErr(a []float32, b []float32) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func TestForwardInverse1DExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		orig := append([]float64(nil), v...)
		ax := []axis{{outer: 1, n: n, stride: 1}}
		decompose(v, ax)
		recompose(v, ax)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > 1e-9*math.Max(1, math.Abs(orig[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRecomposeExact3D(t *testing.T) {
	dims := []uint64{7, 9, 11}
	vals := smooth(dims, 1)
	work := make([]float64, len(vals))
	for i, v := range vals {
		work[i] = float64(v)
	}
	orig := append([]float64(nil), work...)
	decompose(work, axes(dims))
	recompose(work, axes(dims))
	for i := range work {
		if math.Abs(work[i]-orig[i]) > 1e-8 {
			t.Fatalf("elem %d: %g vs %g", i, work[i], orig[i])
		}
	}
}

func TestBoundHolds(t *testing.T) {
	for _, dims := range [][]uint64{{100}, {17, 23}, {9, 11, 13}, {32, 32, 32}} {
		vals := smooth(dims, 2)
		for _, eb := range []float64{1, 0.1, 1e-3} {
			stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundAbs, Bound: eb})
			if err != nil {
				t.Fatalf("dims %v eb %g: %v", dims, eb, err)
			}
			dec, outDims, err := DecompressSlice[float32](stream)
			if err != nil {
				t.Fatalf("dims %v eb %g: %v", dims, eb, err)
			}
			if len(outDims) != len(dims) {
				t.Fatalf("dims %v", outDims)
			}
			if worst := maxErr(vals, dec); worst > eb {
				t.Fatalf("dims %v eb %g: max err %g", dims, eb, worst)
			}
		}
	}
}

func TestBoundPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(300)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3)))
		}
		eb := math.Pow(10, float64(-rng.Intn(5)))
		stream, err := CompressSlice(vals, []uint64{uint64(n)}, Params{Mode: core.BoundAbs, Bound: eb})
		if err != nil {
			return false
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			return false
		}
		return maxErr(vals, dec) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRelBound(t *testing.T) {
	dims := []uint64{20, 20}
	vals := smooth(dims, 3)
	rel := 1e-3
	stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundValueRangeRel, Bound: rel})
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
	if worst := maxErr(vals, dec); worst > rel*(hi-lo) {
		t.Fatalf("max err %g exceeds %g", worst, rel*(hi-lo))
	}
}

func TestMinPointsPerDimension(t *testing.T) {
	// §V: MGARD errors out rather than compressing dims < 3.
	for _, dims := range [][]uint64{{2}, {1, 10}, {10, 2}, {4, 4, 2}} {
		total := 1
		for _, d := range dims {
			total *= int(d)
		}
		vals := make([]float32, total)
		if _, err := CompressSlice(vals, dims, Params{Mode: core.BoundAbs, Bound: 0.1}); err == nil {
			t.Fatalf("dims %v: expected ErrTooSmall", dims)
		}
	}
}

func TestNonFiniteRejected(t *testing.T) {
	vals := []float32{1, 2, float32(math.NaN()), 4}
	if _, err := CompressSlice(vals, []uint64{4}, Params{Mode: core.BoundAbs, Bound: 0.1}); err == nil {
		t.Fatal("expected ErrNonFinite")
	}
}

func TestFloat64Path(t *testing.T) {
	dims := []uint64{15, 15}
	vals := make([]float64, 225)
	for i := range vals {
		vals[i] = math.Cos(float64(i) / 13)
	}
	eb := 1e-8
	stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundAbs, Bound: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecompressSlice[float64](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(vals[i]-dec[i]) > eb {
			t.Fatalf("elem %d error %g", i, math.Abs(vals[i]-dec[i]))
		}
	}
}

func TestCompressesSmoothData(t *testing.T) {
	dims := []uint64{32, 32, 32}
	vals := smooth(dims, 4)
	stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(vals)*4) / float64(len(stream)); ratio < 2 {
		t.Fatalf("ratio %f too low for smooth data", ratio)
	}
}

func TestCorruptStreams(t *testing.T) {
	dims := []uint64{8, 8}
	vals := smooth(dims, 5)
	stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundAbs, Bound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 5, 8, len(stream) - 2} {
		if _, _, err := DecompressSlice[float32](stream[:cut]); err == nil {
			t.Fatalf("truncation at %d: expected error", cut)
		}
	}
	if _, _, err := DecompressSlice[float64](stream); err == nil {
		t.Fatal("expected dtype mismatch")
	}
}

func TestPluginRoundTripAndConfig(t *testing.T) {
	dims := []uint64{12, 12, 12}
	vals := smooth(dims, 6)
	in := core.FromFloat32s(vals, dims...)
	c, err := core.NewCompressor("mgard")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.05)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, dims...)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr(vals, dec.Float32s()); worst > 0.05 {
		t.Fatalf("max err %g", worst)
	}
	if v, err := c.Configuration().GetUint64("mgard:min_points_per_dim"); err != nil || v != 3 {
		t.Fatalf("configuration: %v %v", v, err)
	}
	// The plugin surfaces the §V failure mode for tiny dims.
	small := core.FromFloat32s(make([]float32, 4), 2, 2)
	if _, err := core.Compress(c, small); err == nil {
		t.Fatal("expected error for 2x2 input")
	}
}

func BenchmarkCompress3D(b *testing.B) {
	dims := []uint64{48, 48, 48}
	vals := smooth(dims, 1)
	p := Params{Mode: core.BoundValueRangeRel, Bound: 1e-3}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressSlice(vals, dims, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConstantFieldRoundTrips: a constant field has no value range, so
// pressio:rel leaves no error to spend and the field must come back exactly.
// A nonzero constant's code at the first bin is far past int64 range; the
// encoder codes it as ±1 at bin |c|/2 instead.
func TestConstantFieldRoundTrips(t *testing.T) {
	for _, c := range []float64{0, 1, 1000, -3.25} {
		for _, dims := range [][]uint64{{9, 9}, {3, 5, 4}} {
			checkConstant[float32](t, c, dims)
			checkConstant[float64](t, c, dims)
		}
	}
}

func checkConstant[T core.Float](t *testing.T, c float64, dims []uint64) {
	t.Helper()
	n, _ := core.CheckedElems(dims, maxElems)
	vals := make([]T, n)
	for i := range vals {
		vals[i] = T(c)
	}
	stream, err := CompressSlice(vals, dims, Params{Mode: core.BoundValueRangeRel, Bound: 1e-3})
	if err != nil {
		t.Fatalf("constant %g, dims %v: %v", c, dims, err)
	}
	dec, _, err := DecompressSlice[T](stream)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec, vals) {
		t.Fatalf("constant %g, dims %v: does not round-trip exactly", c, dims)
	}
}

// TestBoundUnreachableRefused: once a coefficient's code leaves int64
// range the float-to-int conversion is implementation-defined, and smaller
// bins only make it larger, so the encoder refuses with the typed error.
func TestBoundUnreachableRefused(t *testing.T) {
	spike := make([]float64, 27)
	spike[13] = 1e30
	if _, err := CompressSlice(spike, []uint64{3, 9}, Params{Mode: core.BoundAbs, Bound: 1e-3}); !errors.Is(err, ErrBoundUnreachable) {
		t.Fatalf("1e30 spike under abs 1e-3: %v, want ErrBoundUnreachable", err)
	}
	// A value range tiny beside the magnitude leaves the same gap under rel.
	narrow := []float64{1e21, 1e21 + 131072, 1e21, 1e21 + 262144, 1e21}
	if _, err := CompressSlice(narrow, []uint64{5}, Params{Mode: core.BoundValueRangeRel, Bound: 1e-4}); !errors.Is(err, ErrBoundUnreachable) {
		t.Fatalf("narrow range under rel 1e-4: %v, want ErrBoundUnreachable", err)
	}
}

// TestHeaderCannotBuyAllocation hands the decoder a stream of under 100
// bytes whose header declares 2^40 elements: the payload scratch is held to
// what the stream's own bytes can inflate to, so it refuses the stream with
// ErrCorrupt having allocated little.
func TestHeaderCannotBuyAllocation(t *testing.T) {
	hdr, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{1 << 20, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hdr = binary.AppendUvarint(hdr, math.Float64bits(1e-3))
	stream, err := lossless.AppendDeflate(hdr, 1, binary.AppendUvarint(nil, 1<<40), make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) >= 100 {
		t.Fatalf("stream is %d bytes", len(stream))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = DecompressSlice[float32](stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Errorf("err %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a %d-byte stream allocated %d bytes", len(stream), alloc)
	}
}
