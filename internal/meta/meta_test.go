package meta

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/lossless"
	_ "pressio/internal/metrics"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

func smooth(dims []uint64, seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	total := uint64(1)
	for _, d := range dims {
		total *= d
	}
	vals := make([]float32, total)
	for i := range vals {
		vals[i] = float32(40*math.Sin(float64(i)/33) + 0.02*rng.NormFloat64())
	}
	return core.FromFloat32s(vals, dims...)
}

func maxErr(a, b *core.Data) float64 {
	av, bv := a.AsFloat64s(), b.AsFloat64s()
	worst := 0.0
	for i := range av {
		if d := math.Abs(av[i] - bv[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestChunkingPreservesBound(t *testing.T) {
	in := smooth([]uint64{40, 16, 16}, 1)
	c, err := core.NewCompressor("chunking")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue("chunking:compressor", "sz_threadsafe").
		SetValue("chunking:chunk_rows", uint64(8)).
		SetValue(core.KeyAbs, 0.01)
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 40, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDims(dec.Dims(), in.Dims()) {
		t.Fatalf("dims %v", dec.Dims())
	}
	if worst := maxErr(in, dec); worst > 0.01 {
		t.Fatalf("bound violated through chunking: %g", worst)
	}
}

func equalDims(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChunkingWithSingleThreadSafetyChild(t *testing.T) {
	// The "sz" plugin is thread-safety "single": chunking must fall back
	// to serial execution and still produce correct output.
	in := smooth([]uint64{16, 8, 8}, 2)
	c, _ := core.NewCompressor("chunking")
	opts := core.NewOptions().
		SetValue("chunking:compressor", "sz").
		SetValue("chunking:chunk_rows", uint64(4)).
		SetValue(core.KeyAbs, 0.05)
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 16, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr(in, dec); worst > 0.05 {
		t.Fatalf("bound violated: %g", worst)
	}
}

func TestChunkingLosslessChild(t *testing.T) {
	in := smooth([]uint64{10, 100}, 3)
	c, _ := core.NewCompressor("chunking")
	if err := c.SetOptions(core.NewOptions().
		SetValue("chunking:compressor", "shuffle").
		SetValue("chunking:chunk_rows", uint64(3))); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(in) {
		t.Fatal("lossless chunking round trip failed")
	}
}

func TestTransposeFunction(t *testing.T) {
	// 2x3 matrix transposed.
	d := core.FromFloat64s([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	tr, err := Transpose(d, []uint64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !equalDims(tr.Dims(), []uint64{3, 2}) {
		t.Fatalf("dims %v", tr.Dims())
	}
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, v := range tr.Float64s() {
		if v != want[i] {
			t.Fatalf("tr[%d] = %v", i, v)
		}
	}
	back, err := Transpose(tr, invertPerm([]uint64{1, 0}))
	if err != nil || !back.Equal(d) {
		t.Fatal("double transpose should be identity")
	}
	// 3-D with a rotation permutation.
	d3 := smooth([]uint64{3, 4, 5}, 4)
	perm := []uint64{2, 0, 1}
	tr3, err := Transpose(d3, perm)
	if err != nil {
		t.Fatal(err)
	}
	back3, err := Transpose(tr3, invertPerm(perm))
	if err != nil || !back3.Equal(d3) {
		t.Fatal("3-D transpose inverse failed")
	}
	if _, err := Transpose(d, []uint64{0, 0}); err == nil {
		t.Fatal("expected invalid permutation error")
	}
}

func TestTransposeMetaRoundTrip(t *testing.T) {
	in := smooth([]uint64{8, 12, 20}, 5)
	c, _ := core.NewCompressor("transpose")
	if err := c.SetOptions(core.NewOptions().
		SetValue("transpose:compressor", "sz_threadsafe").
		SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 8, 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDims(dec.Dims(), in.Dims()) {
		t.Fatalf("dims %v", dec.Dims())
	}
	if worst := maxErr(in, dec); worst > 0.01 {
		t.Fatalf("bound violated through transpose: %g", worst)
	}
}

func TestResizeFixesZfpPadding(t *testing.T) {
	// §V: an A×B×1 field is inefficient for the 4^3-block codec; resizing
	// to A×B recovers the efficiency. Both must round trip with the bound.
	vals := smooth([]uint64{64, 64, 1}, 6)
	direct, _ := core.NewCompressor("zfp")
	if err := direct.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 1e-3)); err != nil {
		t.Fatal(err)
	}
	asIs, err := core.Compress(direct, vals)
	if err != nil {
		t.Fatal(err)
	}
	resized, _ := core.NewCompressor("resize")
	newDims := core.NewData(core.DTypeUint64, 2)
	copy(newDims.Uint64s(), []uint64{64, 64})
	if err := resized.SetOptions(core.NewOptions().
		SetValue("resize:compressor", "zfp").
		Set("resize:dims", core.NewOption(newDims)).
		SetValue(core.KeyAbs, 1e-3)); err != nil {
		t.Fatal(err)
	}
	viaResize, err := core.Compress(resized, vals)
	if err != nil {
		t.Fatal(err)
	}
	if viaResize.ByteLen() >= asIs.ByteLen() {
		t.Fatalf("resize should beat padded 3-D: %d vs %d", viaResize.ByteLen(), asIs.ByteLen())
	}
	dec, err := core.Decompress(resized, viaResize, core.DTypeFloat32, 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDims(dec.Dims(), []uint64{64, 64, 1}) {
		t.Fatalf("original dims not restored: %v", dec.Dims())
	}
	if worst := maxErr(vals, dec); worst > 1e-3 {
		t.Fatalf("bound violated: %g", worst)
	}
}

// TestSampleReducesData decompresses with the shape that was compressed, as
// a generic caller does, through a lossless child (which trusts the declared
// shape) and a self-describing one (which refuses a shape its stream does
// not hold); both return the sample.
func TestSampleReducesData(t *testing.T) {
	in := smooth([]uint64{16, 10}, 7)
	for _, child := range []string{"noop", "sz_threadsafe"} {
		c, _ := core.NewCompressor("sample")
		if err := c.SetOptions(core.NewOptions().
			SetValue("sample:stride", uint64(4)).
			SetValue("sample:compressor", child).
			SetValue(core.KeyAbs, 1e-6)); err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.Decompress(c, comp, core.DTypeFloat32, 16, 10)
		if err != nil {
			t.Fatalf("%s: %v", child, err)
		}
		if !equalDims(dec.Dims(), []uint64{4, 10}) {
			t.Fatalf("%s: sample dims %v", child, dec.Dims())
		}
		// Sampled rows must match the strided originals: exactly through
		// noop, within the bound through sz.
		tol := 0.0
		if child != "noop" {
			tol = 1e-6
		}
		for r := 0; r < 4; r++ {
			for col := 0; col < 10; col++ {
				if d := dec.Float32s()[r*10+col] - in.Float32s()[r*4*10+col]; math.Abs(float64(d)) > tol {
					t.Fatalf("%s: sample row %d mismatch", child, r)
				}
			}
		}
	}
}

func TestDeltaEncodingLosslessChild(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1000 + i*3)
	}
	in := core.FromInt64s(vals, 1000)
	c, _ := core.NewCompressor("delta_encoding")
	if err := c.SetOptions(core.NewOptions().SetValue("delta_encoding:compressor", "rle")); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeInt64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(in) {
		t.Fatal("delta round trip failed")
	}
}

func TestLinearQuantizerBound(t *testing.T) {
	in := smooth([]uint64{50, 50}, 8)
	c, _ := core.NewCompressor("linear_quantizer")
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.005)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr(in, dec); worst > 0.005+1e-9 {
		t.Fatalf("quantizer bound violated: %g", worst)
	}
	ratio := float64(in.ByteLen()) / float64(comp.ByteLen())
	if ratio < 2 {
		t.Fatalf("quantizer ratio %f too low", ratio)
	}
}

// TestTransformHeadersRejectOverflowingDims: delta_encoding and
// linear_quantizer headers whose dims product wraps uint64 (2^24 * 2^40 ≡ 0)
// must fail the shape check itself, not rely on downstream length mismatches.
func TestTransformHeadersRejectOverflowingDims(t *testing.T) {
	for _, tc := range []struct {
		name, magic string
	}{
		{"delta_encoding", deltaMagic},
		{"linear_quantizer", linQuantMagic},
	} {
		var b []byte
		b = append(b, tc.magic...)
		b = append(b, byte(core.DTypeFloat32), 2)
		b = binary.AppendUvarint(b, 1<<24)
		b = binary.AppendUvarint(b, 1<<40)
		c, err := core.NewCompressor(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Decompress(c, core.NewBytes(b), core.DTypeFloat32, 4)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: overflowing dims error = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestChunkingRefusesUnbackedChunkCount: a chunk table entry takes at least
// two bytes, so a short stream declaring 2^24 chunks is refused before the
// table is allocated (48 B an entry, ~805 MB for this one).
func TestChunkingRefusesUnbackedChunkCount(t *testing.T) {
	b, err := appendPrelude(chunkingMagic, core.DTypeFloat32, []uint64{16})
	if err != nil {
		t.Fatal(err)
	}
	b = binary.AppendUvarint(b, 1<<24)
	b = append(b, 16, 4, 0, 0, 0, 0)
	c, err := core.NewCompressor("chunking")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = core.Decompress(c, core.NewBytes(b), core.DTypeFloat32, 16)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte stream declaring 2^24 chunks: error %v, want ErrCorrupt", len(b), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a %d-byte stream allocated %d bytes", len(b), alloc)
	}
}

func TestSwitchMeta(t *testing.T) {
	in := smooth([]uint64{24, 24}, 11)
	c, _ := core.NewCompressor("switch")
	if err := c.SetOptions(core.NewOptions().
		SetValue("switch:active", "zfp").
		SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	zfpOut, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, zfpOut, core.DTypeFloat32, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr(in, dec); worst > 0.01 {
		t.Fatalf("switch/zfp bound violated: %g", worst)
	}
	// Switch at runtime.
	if err := c.SetOptions(core.NewOptions().SetValue("switch:active", "sz_threadsafe")); err != nil {
		t.Fatal(err)
	}
	szOut, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := core.Decompress(c, szOut, core.DTypeFloat32, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxErr(in, dec2); worst > 0.01 {
		t.Fatalf("switch/sz bound violated: %g", worst)
	}
	if err := c.CheckOptions(core.NewOptions().SetValue("switch:active", "bogus")); err == nil {
		t.Fatal("expected unknown compressor error")
	}
}

func TestCompressManyIndependent(t *testing.T) {
	bufs := make([]*core.Data, 9)
	hints := make([]*core.Data, 9)
	for i := range bufs {
		bufs[i] = smooth([]uint64{16, 16}, int64(100+i))
		hints[i] = core.NewEmpty(core.DTypeFloat32, 16, 16)
	}
	proto, _ := core.NewCompressor("sz_threadsafe")
	if err := proto.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.02)); err != nil {
		t.Fatal(err)
	}
	comps, err := CompressMany(proto, bufs, 4)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := DecompressMany(proto, comps, hints, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if worst := maxErr(bufs[i], decs[i]); worst > 0.02 {
			t.Fatalf("buffer %d bound violated: %g", i, worst)
		}
	}
}

func TestCompressManyDependentFeedback(t *testing.T) {
	bufs := make([]*core.Data, 5)
	for i := range bufs {
		bufs[i] = smooth([]uint64{16, 16}, int64(200+i))
	}
	proto, _ := core.NewCompressor("sz_threadsafe")
	if err := proto.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.1)); err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	fb := func(step int, results *core.Options) *core.Options {
		if r, err := results.GetFloat64("size:compression_ratio"); err == nil {
			ratios = append(ratios, r)
		}
		// Tighten the bound each step.
		return core.NewOptions().SetValue(core.KeyAbs, 0.1/float64(step+2))
	}
	comps, err := CompressManyDependent(proto, bufs, []string{"size"}, fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 5 || len(ratios) != 5 {
		t.Fatalf("comps %d ratios %d", len(comps), len(ratios))
	}
	// Tighter bounds mean larger streams over the steps.
	if comps[4].ByteLen() <= comps[0].ByteLen() {
		t.Fatalf("feedback did not tighten bound: %d vs %d", comps[4].ByteLen(), comps[0].ByteLen())
	}
}

func TestUnknownChildRejected(t *testing.T) {
	c, _ := core.NewCompressor("chunking")
	if err := c.SetOptions(core.NewOptions().SetValue("chunking:compressor", "nope")); err != nil {
		t.Fatal(err) // name is stored; resolution happens at use
	}
	in := smooth([]uint64{8, 8}, 12)
	if _, err := core.Compress(c, in); err == nil {
		t.Fatal("expected unknown plugin error at compress time")
	}
}

// TestMetaHonoursDeclaredOutput: an output that declares a dtype and count
// other than the stream's is refused as corrupt, and the stream's own shape
// still decodes.
func TestMetaHonoursDeclaredOutput(t *testing.T) {
	in := smooth([]uint64{16, 16, 16}, 12)
	for _, name := range []string{"chunking", "delta_encoding", "linear_quantizer", "resize", "transpose"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := core.Decompress(c, comp, core.DTypeFloat64, 100); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: float32[16 16 16] stream into a declared float64[100]: err = %v, want ErrCorrupt", name, err)
		}
		if _, err := core.Decompress(c, comp, in.DType(), in.Dims()...); err != nil {
			t.Errorf("%s: declared as compressed: %v", name, err)
		}
	}
}
