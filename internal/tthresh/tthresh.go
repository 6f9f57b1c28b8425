package tthresh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Version is the compressor version reported through the plugin interface.
const Version = "0.3.0-go"

// ErrCorrupt reports a malformed tthresh stream.
var ErrCorrupt = fmt.Errorf("tthresh: %w", core.ErrCorrupt)

// ErrNonFinite reports NaN or Inf input.
var ErrNonFinite = errors.New("tthresh: non-finite values unsupported")

// Params configures a compression call.
type Params struct {
	// Eps is the target relative Frobenius error:
	// ||X - X'||_F <= Eps * ||X||_F. Must be in (0, 1).
	Eps float64
	// LosslessLevel is the DEFLATE effort for the backend (0 = default).
	LosslessLevel int
}

const magic = "TTH1"

// maxModeDim bounds the per-mode extent so the Jacobi solve stays tractable.
const maxModeDim = 1024

func dims3(dims []uint64) (d0, d1, d2 int, err error) {
	if len(dims) == 0 || len(dims) > 3 {
		return 0, 0, 0, fmt.Errorf("tthresh: %w: supports 1-3 dimensions, got %d", core.ErrInvalidDims, len(dims))
	}
	d0, d1, d2 = 1, 1, 1
	switch len(dims) {
	case 1:
		d2 = int(dims[0])
	case 2:
		d1, d2 = int(dims[0]), int(dims[1])
	case 3:
		d0, d1, d2 = int(dims[0]), int(dims[1]), int(dims[2])
	}
	if d0 < 1 || d1 < 1 || d2 < 1 {
		return 0, 0, 0, fmt.Errorf("tthresh: %w: zero or overflowed extent", core.ErrInvalidDims)
	}
	if d0 > maxModeDim || d1 > maxModeDim || d2 > maxModeDim {
		return 0, 0, 0, fmt.Errorf("tthresh: %w: extents %dx%dx%d exceed %d", core.ErrInvalidDims, d0, d1, d2, maxModeDim)
	}
	return d0, d1, d2, nil
}

// CompressSlice compresses vals shaped dims (C order, rank 1-3) under p.
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	if p.Eps <= 0 || p.Eps >= 1 || math.IsNaN(p.Eps) {
		return nil, fmt.Errorf("tthresh: eps %v must be in (0,1)", p.Eps)
	}
	d0, d1, d2, err := dims3(dims)
	if err != nil {
		return nil, err
	}
	n := d0 * d1 * d2
	if n != len(vals) {
		return nil, fmt.Errorf("tthresh: %w: dims %v describe %d elements, have %d",
			core.ErrInvalidDims, dims, n, len(vals))
	}
	x := make([]float64, n)
	normSq := 0.0
	for i, v := range vals {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, ErrNonFinite
		}
		x[i] = f
		normSq += f * f
	}

	// HOSVD: factor matrices from the Gram matrices of each unfolding.
	sizes := [3]int{d0, d1, d2}
	factors := make([][]float64, 3)
	for mode := 0; mode < 3; mode++ {
		if sizes[mode] == 1 {
			factors[mode] = []float64{1}
			continue
		}
		g := gram(x, d0, d1, d2, mode)
		_, v := jacobiEig(g, sizes[mode])
		factors[mode] = v
	}
	// Core = X ×_k U_k^T.
	c := x
	for mode := 0; mode < 3; mode++ {
		if sizes[mode] > 1 {
			c = ttm(c, d0, d1, d2, mode, factors[mode], true)
		}
	}

	// Threshold: discard the smallest coefficients while the discarded
	// energy stays within half the budget; quantize the rest with the
	// other half.
	budgetSq := p.Eps * p.Eps * normSq
	absSorted := make([]float64, n)
	for i, v := range c {
		absSorted[i] = math.Abs(v)
	}
	sort.Float64s(absSorted)
	discardSq := 0.0
	discarded := 0
	threshold := 0.0
	for _, a := range absSorted {
		if discardSq+a*a > budgetSq/2 {
			break
		}
		discardSq += a * a
		threshold = a
		discarded++
	}
	// Ties at the threshold value must be discarded only as many times as
	// the budget loop counted them, or the discarded energy could exceed
	// the budget.
	tieBudget := 0
	for i := 0; i < discarded; i++ {
		if absSorted[i] == threshold {
			tieBudget++
		}
	}
	kept := n - discarded
	var bin float64
	if kept > 0 {
		bin = math.Sqrt(budgetSq / 2 / float64(kept))
	} else {
		bin = 1
	}
	if bin == 0 || math.IsNaN(bin) {
		bin = math.SmallestNonzeroFloat64
	}

	// Serialize: bitmap + zig-zag varint codes + factors.
	bitmap := make([]byte, (n+7)/8)
	var codes []byte
	codes = binary.AppendUvarint(codes, uint64(kept))
	ties := 0
	for i, v := range c {
		a := math.Abs(v)
		if a < threshold {
			continue
		}
		if a == threshold && ties < tieBudget {
			ties++
			continue
		}
		bitmap[i/8] |= 1 << (i % 8)
		q := int64(math.Floor(v/(2*bin) + 0.5))
		codes = binary.AppendVarint(codes, q)
	}
	var facBytes []byte
	for mode := 0; mode < 3; mode++ {
		for _, f := range factors[mode] {
			facBytes = binary.LittleEndian.AppendUint64(facBytes, math.Float64bits(f))
		}
	}
	body := make([]byte, 0, len(bitmap)+len(codes)+len(facBytes)+16)
	body = binary.AppendUvarint(body, uint64(len(bitmap)))
	body = append(body, bitmap...)
	body = binary.AppendUvarint(body, uint64(len(codes)))
	body = append(body, codes...)
	body = append(body, facBytes...)
	packed, err := lossless.Deflate(body, p.LosslessLevel)
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

// Header describes a compressed stream.
type Header struct {
	DType core.DType
	Dims  []uint64
	Bin   float64
}

// ParseHeader reads the stream header.
func ParseHeader(stream []byte) (Header, int, error) {
	var h Header
	if len(stream) < 4 || string(stream[:4]) != magic {
		return h, 0, ErrCorrupt
	}
	dtype, dims, n, err := core.ReadFloatShape(stream[4:], 3, maxModeDim*maxModeDim*maxModeDim)
	if err != nil {
		return h, 0, ErrCorrupt
	}
	h.DType, h.Dims = dtype, dims
	pos := 4 + n
	binBits, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return h, 0, ErrCorrupt
	}
	pos += sz
	h.Bin = math.Float64frombits(binBits)
	if h.Bin <= 0 || math.IsNaN(h.Bin) || math.IsInf(h.Bin, 0) {
		return h, 0, ErrCorrupt
	}
	return h, pos, nil
}

// DecompressSlice decodes a stream produced by CompressSlice.
func DecompressSlice[T core.Float](stream []byte) ([]T, []uint64, error) {
	h, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	if h.DType != core.FloatDType[T]() {
		return nil, nil, fmt.Errorf("tthresh: %w: stream holds %s", core.ErrInvalidDType, h.DType)
	}
	d0, d1, d2, err := dims3(h.Dims)
	if err != nil {
		return nil, nil, err
	}
	n := d0 * d1 * d2
	// The body: bitmap and code lengths, a varint per element at most, and
	// the three square factor matrices.
	limit := uint64(3*binary.MaxVarintLen64+(n+7)/8+n*binary.MaxVarintLen64) +
		8*uint64(d0*d0+d1*d1+d2*d2)
	body, err := lossless.Inflate(stream[pos:], limit)
	if err != nil {
		return nil, nil, err
	}
	bmLen, sz := binary.Uvarint(body)
	if sz <= 0 || bmLen != uint64((n+7)/8) || uint64(len(body)) < uint64(sz)+bmLen {
		return nil, nil, ErrCorrupt
	}
	off := sz
	bitmap := body[off : off+int(bmLen)]
	off += int(bmLen)
	codesLen, sz := binary.Uvarint(body[off:])
	if sz <= 0 || uint64(len(body)) < uint64(off+sz)+codesLen {
		return nil, nil, ErrCorrupt
	}
	off += sz
	codes := body[off : off+int(codesLen)]
	off += int(codesLen)

	kept64, sz := binary.Uvarint(codes)
	if sz <= 0 || kept64 > uint64(n) {
		return nil, nil, ErrCorrupt
	}
	cpos := sz
	c := make([]float64, n)
	seen := uint64(0)
	for i := 0; i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		q, sz := binary.Varint(codes[cpos:])
		if sz <= 0 {
			return nil, nil, ErrCorrupt
		}
		cpos += sz
		c[i] = float64(q) * 2 * h.Bin
		seen++
	}
	if seen != kept64 {
		return nil, nil, ErrCorrupt
	}

	sizes := [3]int{d0, d1, d2}
	factors := make([][]float64, 3)
	for mode := 0; mode < 3; mode++ {
		m := sizes[mode]
		need := m * m * 8
		if len(body)-off < need {
			return nil, nil, ErrCorrupt
		}
		f := make([]float64, m*m)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8*i:]))
		}
		off += need
		factors[mode] = f
	}

	for mode := 2; mode >= 0; mode-- {
		if sizes[mode] > 1 {
			c = ttm(c, d0, d1, d2, mode, factors[mode], false)
		}
	}
	out := make([]T, n)
	for i, v := range c {
		out[i] = T(v)
	}
	return out, h.Dims, nil
}
