package mgard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// The encoder as commit 6fcc29b had it: a fresh codes and recon slice per
// verify attempt, a start-offset list per axis per pass and a payload grown
// one varint at a time. It is the oracle the allocation-lean encoder is
// checked against: at any explicit DEFLATE level both write the same bytes.

// compressOracle is CompressSlice as commit 6fcc29b had it.
func compressOracle[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	if p.Bound <= 0 || math.IsNaN(p.Bound) || math.IsInf(p.Bound, 0) {
		return nil, fmt.Errorf("mgard: bound %v must be positive and finite", p.Bound)
	}
	for _, d := range dims {
		if d < 3 {
			return nil, fmt.Errorf("%w: dims %v", ErrTooSmall, dims)
		}
	}
	total64, err := core.CheckedElems(dims, maxElems)
	if err != nil {
		return nil, err
	}
	total := int(total64)
	if total != len(vals) {
		return nil, fmt.Errorf("mgard: %w: dims %v vs %d elements", core.ErrInvalidDims, dims, len(vals))
	}
	work := make([]float64, total)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range vals {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, ErrNonFinite
		}
		work[i] = f
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	eb := p.Bound
	if p.Mode == core.BoundValueRangeRel {
		eb = p.Bound * (hi - lo)
		if eb <= 0 {
			eb = math.SmallestNonzeroFloat32
		}
	}

	decomposeLines(work, dims)

	// Start with bin = eb / 2^d and verify; shrink until the bound holds.
	bin := eb / float64(uint64(1)<<len(dims))
	var codes []int64
	for attempt := 0; ; attempt++ {
		if attempt > 12 {
			return nil, fmt.Errorf("mgard: could not satisfy bound %g", eb)
		}
		codes = quantize(work, bin)
		recon := dequantize(codes, bin)
		recomposeLines(recon, dims)
		if worstErr(vals, recon) <= eb {
			break
		}
		bin /= 2
	}

	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(codes)))
	for _, q := range codes {
		payload = binary.AppendVarint(payload, q)
	}
	packed, err := lossless.Deflate(payload, p.LosslessLevel)
	if err != nil {
		return nil, err
	}

	out, err := core.AppendFloatShape[T]([]byte(magic), dims)
	if err != nil {
		return nil, err
	}
	out = binary.AppendUvarint(out, math.Float64bits(bin))
	out = append(out, packed...)
	return out, nil
}

func quantize(v []float64, bin float64) []int64 {
	codes := make([]int64, len(v))
	inv := 1 / (2 * bin)
	for i, x := range v {
		codes[i] = int64(math.Floor(x*inv + 0.5))
	}
	return codes
}

func dequantize(codes []int64, bin float64) []float64 {
	v := make([]float64, len(codes))
	for i, q := range codes {
		v[i] = float64(q) * 2 * bin
	}
	return v
}

// forward1D replaces fine-grid values with hierarchical surpluses along one
// axis, for every line of the field. stride is the element distance along
// the axis, n the axis extent, and lines iterates all (start) offsets.
func forward1D(v []float64, starts []int, n, stride int) {
	maxL := levels(n)
	for l := 1; l <= maxL; l++ {
		h := 1 << (l - 1)
		step := 1 << l
		for _, s := range starts {
			for i := h; i < n; i += step {
				left := v[s+(i-h)*stride]
				var pred float64
				if i+h < n {
					pred = 0.5 * (left + v[s+(i+h)*stride])
				} else {
					pred = left
				}
				v[s+i*stride] -= pred
			}
		}
	}
}

// inverse1D undoes forward1D.
func inverse1D(v []float64, starts []int, n, stride int) {
	maxL := levels(n)
	for l := maxL; l >= 1; l-- {
		h := 1 << (l - 1)
		step := 1 << l
		for _, s := range starts {
			for i := h; i < n; i += step {
				left := v[s+(i-h)*stride]
				var pred float64
				if i+h < n {
					pred = 0.5 * (left + v[s+(i+h)*stride])
				} else {
					pred = left
				}
				v[s+i*stride] += pred
			}
		}
	}
}

// lineStarts enumerates the start offset of every 1-D line along dimension
// d for a tensor with the given dims (C order).
func lineStarts(dims []uint64, d int) ([]int, int, int) {
	n := int(dims[d])
	stride := 1
	for i := d + 1; i < len(dims); i++ {
		stride *= int(dims[i])
	}
	total := 1
	for _, v := range dims {
		total *= int(v)
	}
	lines := total / n
	starts := make([]int, 0, lines)
	// Iterate all indices with dimension d fixed at 0.
	var walk func(dim, off int)
	walk = func(dim, off int) {
		if dim == len(dims) {
			starts = append(starts, off)
			return
		}
		if dim == d {
			walk(dim+1, off)
			return
		}
		str := 1
		for i := dim + 1; i < len(dims); i++ {
			str *= int(dims[i])
		}
		for i := 0; i < int(dims[dim]); i++ {
			walk(dim+1, off+i*str)
		}
	}
	walk(0, 0)
	return starts, n, stride
}

// decomposeLines is decompose as commit 6fcc29b had it.
func decomposeLines(v []float64, dims []uint64) {
	for d := range dims {
		if dims[d] < 2 {
			continue
		}
		starts, n, stride := lineStarts(dims, d)
		forward1D(v, starts, n, stride)
	}
}

// recomposeLines is recompose as commit 6fcc29b had it.
func recomposeLines(v []float64, dims []uint64) {
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] < 2 {
			continue
		}
		starts, n, stride := lineStarts(dims, d)
		inverse1D(v, starts, n, stride)
	}
}

// attemptsOf reads how many bins the verify loop tried off a stream's
// header: the first is eb/2^d and each failed attempt halves it.
func attemptsOf(t testing.TB, stream []byte, eb float64, rank int) int {
	t.Helper()
	h, _, err := ParseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	return 1 + int(math.Round(math.Log2(eb/float64(uint64(1)<<rank)/h.Bin)))
}

// matchOracle compresses vals at DEFLATE levels 1 and 6 with CompressSlice
// and the oracle. Where the oracle succeeds the bytes must be identical;
// where it fails (constant fields under pressio:rel, codes past int64
// range), CompressSlice must refuse or meet the bound. It returns the
// oracle's level-1 stream, or nil.
func matchOracle[T core.Float](t testing.TB, vals []T, dims []uint64, p Params) []byte {
	t.Helper()
	var first []byte
	for _, level := range []int{1, 6} {
		p.LosslessLevel = level
		want, werr := compressOracle(vals, dims, p)
		got, gerr := CompressSlice(vals, dims, p)
		switch {
		case werr == nil && gerr != nil:
			t.Fatalf("dims %v %+v: oracle compresses, CompressSlice: %v", dims, p, gerr)
		case werr == nil && !bytes.Equal(got, want):
			t.Fatalf("dims %v %+v: %d bytes differ from the oracle's %d", dims, p, len(got), len(want))
		case werr != nil && gerr == nil:
			checkBound(t, vals, got, boundOf(vals, p))
		}
		if level == 1 && werr == nil {
			first = want
		}
	}
	return first
}

// boundOf is the absolute bound p means for vals.
func boundOf[T core.Float](vals []T, p Params) float64 {
	if p.Mode != core.BoundValueRangeRel {
		return p.Bound
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = min(lo, float64(v)), max(hi, float64(v))
	}
	return p.Bound * (hi - lo)
}

func checkBound[T core.Float](t testing.TB, vals []T, stream []byte, eb float64) {
	t.Helper()
	dec, _, err := DecompressSlice[T](stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if d := math.Abs(float64(dec[i]) - float64(vals[i])); !(d <= eb) {
			t.Fatalf("elem %d: error %g exceeds %g", i, d, eb)
		}
	}
}

// field is a smooth wave plus Gaussian noise of the given amplitude; noise
// at or above the bound drives the verify loop past its first bin.
func field[T core.Float](n int, noise float64, seed int64) []T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]T, n)
	for i := range out {
		out[i] = T(30*math.Sin(float64(i)/40) + rng.NormFloat64()*noise)
	}
	return out
}

func TestCompressMatchesOracle(t *testing.T) {
	shapes := [][]uint64{
		{3}, {5}, {100}, {300}, {1025},
		{3, 3}, {17, 25}, {3, 9}, {33, 4},
		{9, 3, 5}, {7, 9, 11}, {33, 9, 9},
		{3, 5, 4, 6}, {3, 3, 3, 3}, {4, 3, 5, 3},
	}
	bounds := []Params{
		{Mode: core.BoundAbs, Bound: 1e-1},
		{Mode: core.BoundAbs, Bound: 1e-3},
		{Mode: core.BoundValueRangeRel, Bound: 1e-3},
	}
	most := 0
	for si, dims := range shapes {
		n := 1
		for _, d := range dims {
			n *= int(d)
		}
		for _, noise := range []float64{0.02, 10} {
			for bi, p := range bounds {
				seed := int64(100*si + 10*bi + int(noise))
				s32 := matchOracle(t, field[float32](n, noise, seed), dims, p)
				s64 := matchOracle(t, field[float64](n, noise, seed), dims, p)
				if p.Mode == core.BoundAbs && s32 != nil && s64 != nil {
					most = max(most, attemptsOf(t, s32, p.Bound, len(dims)), attemptsOf(t, s64, p.Bound, len(dims)))
				}
			}
		}
	}
	if most < 3 {
		t.Fatalf("no case took more than %d verify attempts; the table no longer reaches the loop's later bins", most)
	}
	for _, g := range goldens {
		if g.wide {
			matchOracle(t, goldenIn[float64](t, g.name), g.dims, g.p)
		} else {
			matchOracle(t, goldenIn[float32](t, g.name), g.dims, g.p)
		}
	}
}

// FuzzCompressMatchesOracle holds CompressSlice to the oracle's bytes on
// shapes of rank 1-4 with extents 3-10, both widths, abs and rel bounds and
// DEFLATE levels 1 and 6. data supplies the extents and then the values, as
// int8 steps scaled by 10^(scale%7-3).
func FuzzCompressMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 7, 9, 100, 3}, uint8(0), uint8(3))
	f.Add([]byte{5, 0, 255, 128, 1, 2, 3, 4, 5, 6}, uint8(2), uint8(6))
	f.Add([]byte{0, 0, 0, 0, 9, 9}, uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, flags, scale uint8) {
		rank := 1 + int(flags%4)
		if len(data) < rank {
			return
		}
		dims := make([]uint64, rank)
		n := 1
		for d := range dims {
			dims[d] = 3 + uint64(data[d]%8)
			n *= int(dims[d])
		}
		data = data[rank:]
		step := math.Pow(10, float64(scale%7)-3)
		v := make([]float64, n)
		for i := range v {
			if len(data) > 0 {
				v[i] = float64(int8(data[i%len(data)])) * step * float64(1+i/len(data))
			}
		}
		p := Params{Mode: core.BoundAbs, Bound: math.Pow(10, -float64(flags>>2%4))}
		if flags&16 != 0 {
			p.Mode = core.BoundValueRangeRel
		}
		if flags&32 != 0 {
			v32 := make([]float32, n)
			for i, x := range v {
				v32[i] = float32(x)
			}
			matchOracle(t, v32, dims, p)
			return
		}
		matchOracle(t, v, dims, p)
	})
}
