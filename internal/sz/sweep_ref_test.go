package sz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pressio/internal/core"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
)

// compressRef is CompressSlice as of commit 1d7b975: one sample at a time
// in scan order, outliers appended as they are met. It is the oracle the
// skewed sweep and the trimmed stream assembly must match byte for byte. Its
// DEFLATE level resolves through the same normalized() as CompressSlice's.
func compressRef[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	outer, nx, ny, nz, err := core.Geometry(dims, maxElems)
	if err != nil {
		return nil, err
	}
	n := outer * nx * ny * nz
	if n != len(vals) {
		return nil, fmt.Errorf("sz: %w: dims %v describe %d elements, have %d",
			core.ErrInvalidDims, dims, n, len(vals))
	}
	eb := p.Bound
	if p.Mode == core.BoundValueRangeRel {
		lo, hi := sliceRange(vals)
		eb = p.Bound * (hi - lo)
		if eb <= 0 {
			eb = math.SmallestNonzeroFloat32
		}
	}
	radius := int64(p.MaxQuantIntervals / 2)
	twoEb := 2 * eb

	codes := make([]uint32, n)
	recon := make([]T, n)
	var outliers []T
	slice := nx * ny * nz
	for o := 0; o < outer; o++ {
		v := vals[o*slice : (o+1)*slice]
		r := recon[o*slice : (o+1)*slice]
		c := codes[o*slice : (o+1)*slice]
		i := 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					pred := lorenzo(r, x, y, z, ny, nz)
					fv := float64(v[i])
					diff := fv - pred
					q := int64(math.Floor(diff/twoEb + 0.5))
					if q > -radius && q < radius {
						dec := T(pred + float64(q)*twoEb)
						if d := float64(dec) - fv; d <= eb && d >= -eb {
							c[i] = uint32(q + radius)
							r[i] = dec
							i++
							continue
						}
					}
					c[i] = 0
					outliers = append(outliers, v[i])
					r[i] = v[i]
					i++
				}
			}
		}
	}

	huff, err := huffman.Encode(codes, uint32(2*radius))
	if err != nil {
		return nil, err
	}
	outlierBytes := floatBytes(outliers)
	hdr, err := core.AppendFloatShape[T]([]byte(magic), dims)
	if err != nil {
		return nil, err
	}
	hdr = binary.AppendUvarint(hdr, math.Float64bits(eb))
	hdr = binary.AppendUvarint(hdr, uint64(radius))
	hdr = binary.AppendUvarint(hdr, uint64(len(outliers)))
	hdr = binary.AppendUvarint(hdr, uint64(len(huff)))
	body := make([]byte, 0, len(huff)+len(outlierBytes))
	body = append(body, huff...)
	body = append(body, outlierBytes...)
	packed, err := lossless.Deflate(body, p.LosslessLevel)
	if err != nil {
		return nil, err
	}
	return append(hdr, packed...), nil
}

// decompressRef is DecompressSlice as of commit 1d7b975 (less its inflate
// limit): outliers taken in scan order as the reconstruct sweep meets them.
func decompressRef[T core.Float](stream []byte) ([]T, error) {
	h, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, err
	}
	radius64, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || radius64 == 0 || radius64 > 1<<23 {
		return nil, ErrCorrupt
	}
	pos += sz
	nOut, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	pos += sz
	huffLen, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	pos += sz
	body, err := lossless.Inflate(stream[pos:], math.MaxUint64)
	if err != nil {
		return nil, err
	}
	if huffLen > uint64(len(body)) {
		return nil, ErrCorrupt
	}
	codes, _, err := huffman.Decode(body[:huffLen])
	if err != nil {
		return nil, err
	}
	outliers, err := floatsFrom[T](body[huffLen:], nOut)
	if err != nil {
		return nil, err
	}
	outer, nx, ny, nz, err := core.Geometry(h.Dims, maxElems)
	if err != nil {
		return nil, err
	}
	n := outer * nx * ny * nz
	if len(codes) != n {
		return nil, ErrCorrupt
	}
	radius := int64(radius64)
	twoEb := 2 * h.Bound
	recon := make([]T, n)
	oi := 0
	slice := nx * ny * nz
	for o := 0; o < outer; o++ {
		r := recon[o*slice : (o+1)*slice]
		c := codes[o*slice : (o+1)*slice]
		i := 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					code := c[i]
					if code == 0 {
						if oi >= len(outliers) {
							return nil, ErrCorrupt
						}
						r[i] = outliers[oi]
						oi++
					} else {
						pred := lorenzo(r, x, y, z, ny, nz)
						q := int64(code) - radius
						r[i] = T(pred + float64(q)*twoEb)
					}
					i++
				}
			}
		}
	}
	if oi != len(outliers) {
		return nil, ErrCorrupt
	}
	return recon, nil
}

// matchReference compresses vals with CompressSlice and compressRef and
// decodes the stream with DecompressSlice and decompressRef: the streams
// and the reconstructions must be identical to the bit.
func matchReference[T core.Float](t *testing.T, vals []T, dims []uint64, p Params) {
	t.Helper()
	want, wantErr := compressRef(vals, dims, p)
	got, err := CompressSlice(vals, dims, p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("dims %v %+v: error %v, reference %v", dims, p, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dims %v %+v: stream differs from the reference (%d vs %d bytes)", dims, p, len(got), len(want))
	}
	wantVals, err := decompressRef[T](want)
	if err != nil {
		t.Fatalf("dims %v: reference decode: %v", dims, err)
	}
	gotVals, _, err := DecompressSlice[T](got)
	if err != nil {
		t.Fatalf("dims %v: decode: %v", dims, err)
	}
	if !bytes.Equal(floatBytes(gotVals), floatBytes(wantVals)) {
		t.Fatalf("dims %v %+v: reconstruction differs from the reference", dims, p)
	}
}

// testField fills n values: a smooth wave whose amplitude sets how many
// samples escape the bound, plus a share of spikes that always do.
func testField[T core.Float](rng *rand.Rand, n int, spikes float64) []T {
	vals := make([]T, n)
	f := rng.Float64()
	for i := range vals {
		v := 10*math.Sin(f*float64(i)/7) + rng.NormFloat64()*math.Pow(10, float64(rng.Intn(3)-3))
		if rng.Float64() < spikes {
			v = rng.NormFloat64() * 1e6
		}
		vals[i] = T(v)
	}
	return vals
}

func TestSweepMatchesReference(t *testing.T) {
	shapes := [][]uint64{
		{1}, {2}, {5}, {300},
		{1, 1}, {2, 2}, {1, 64}, {64, 1}, {5, 3}, {9, 31}, {13, 7},
		{1, 64, 64}, {3, 5, 7}, {4, 1, 6}, {2, 9, 1}, {3, 6, 3},
		{2, 13, 37}, {2, 11, 127}, {2, 5, 128}, {3, 8, 4}, {2, 10, 5},
		{2, 3, 5, 7}, {3, 1, 9, 6}, {2, 2, 2, 2},
	}
	for nz := 1; nz <= 5; nz++ {
		shapes = append(shapes, []uint64{3, 9, uint64(nz)}, []uint64{10, uint64(nz)})
	}
	bounds := []Params{
		{Mode: core.BoundAbs, Bound: 1e-1},
		{Mode: core.BoundAbs, Bound: 1e-3},
		{Mode: core.BoundAbs, Bound: 1e-6},
		{Mode: core.BoundValueRangeRel, Bound: 1e-4},
		{Mode: core.BoundAbs, Bound: 1e-2, MaxQuantIntervals: 8}, // outlier-heavy: a narrow code range
	}
	rng := rand.New(rand.NewSource(1))
	for _, dims := range shapes {
		n := 1
		for _, d := range dims {
			n *= int(d)
		}
		for _, p := range bounds {
			for _, spikes := range []float64{0, 0.02, 0.5} {
				matchReference(t, testField[float32](rng, n, spikes), dims, p)
				matchReference(t, testField[float64](rng, n, spikes), dims, p)
			}
		}
	}

	// Fields no wave describes: NaN, ±Inf, denormals, a constant, and
	// values far past float32's integer range.
	dims := []uint64{3, 9, 11}
	special := []func(i int) float64{
		func(i int) float64 { return []float64{math.NaN(), 1, math.Inf(1), 2, math.Inf(-1)}[i%5] },
		func(i int) float64 { return float64(i%7) * 1e-310 },
		func(i int) float64 { return float64(i%3) * 1e-40 },
		func(int) float64 { return 42.5 },
		func(i int) float64 { return 1e30 * math.Sin(float64(i)) },
	}
	for _, f := range special {
		v32, v64 := make([]float32, 297), make([]float64, 297)
		for i := range v64 {
			v32[i], v64[i] = float32(f(i)), f(i)
		}
		for _, p := range bounds {
			matchReference(t, v32, dims, p)
			matchReference(t, v64, dims, p)
		}
	}
}

// FuzzSweepMatchesReference draws the shape, bound and values from the
// fuzzer's bytes: any field the reference accepts must give the same
// stream and the same reconstruction.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(11), uint8(3), false, []byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4})
	f.Add(uint8(1), uint8(1), uint8(40), uint8(1), true, []byte{0xff, 0xff, 0xff, 0x7f, 9, 9, 9, 9})
	f.Add(uint8(2), uint8(6), uint8(5), uint8(6), false, make([]byte, 64))
	f.Fuzz(func(t *testing.T, nx, ny, nz, ebExp uint8, f64 bool, raw []byte) {
		dims := []uint64{uint64(nx%6) + 1, uint64(ny%12) + 1, uint64(nz%40) + 1}
		n := int(dims[0] * dims[1] * dims[2])
		p := Params{Mode: core.BoundAbs, Bound: math.Pow(10, -float64(ebExp%9))}
		if ebExp >= 128 {
			p.Mode = core.BoundValueRangeRel
		}
		if len(raw) == 0 {
			return
		}
		// The bytes repeat to fill the field: a short input still covers every
		// edge of the walk, and the bit patterns include NaN and denormals.
		word := func(i, size int) uint64 {
			var w uint64
			for b := range size {
				w |= uint64(raw[(i*size+b)%len(raw)]) << (8 * b)
			}
			return w
		}
		if f64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Float64frombits(word(i, 8))
			}
			matchReference(t, vals, dims, p)
			return
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(uint32(word(i, 4)))
		}
		matchReference(t, vals, dims, p)
	})
}
