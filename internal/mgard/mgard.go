// Package mgard implements a multilevel (multigrid) error-bounded lossy
// compressor in the style of MGARD (Ainsworth et al.): values are
// decomposed into hierarchical surpluses on a sequence of dyadic grids
// (linear-interpolation prediction from the next-coarser grid, applied
// separably per dimension), the surplus coefficients are uniformly
// quantized, and the codes are entropy coded with zig-zag varints plus a
// DEFLATE backend.
//
// Because interpolation errors accumulate across levels, the quantization
// bin starts at bound/2^d and the compressor *verifies* the reconstruction
// against the requested bound before emitting, shrinking the bin and
// retrying in the rare case the conservative estimate is insufficient. The
// emitted stream therefore always satisfies the pointwise bound.
//
// Mirroring the original MGARD behaviour the paper quotes in §V, the
// plugin refuses grids with fewer than 3 points in any dimension.
package mgard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Version is the compressor version reported through the plugin interface.
const Version = "0.1.0-go"

// ErrCorrupt reports a malformed mgard stream.
var ErrCorrupt = errors.New("mgard: corrupt stream")

// ErrNonFinite reports NaN or Inf input, which the multilevel transform
// cannot represent.
var ErrNonFinite = errors.New("mgard: non-finite values unsupported")

// ErrTooSmall mirrors MGARD's requirement of at least 3 points per
// dimension.
var ErrTooSmall = errors.New("mgard: requires at least 3 points in each dimension")

// Params configures a compression call.
type Params struct {
	// Mode selects absolute or value-range-relative interpretation of
	// Bound.
	Mode core.ErrorBoundMode
	// Bound is the pointwise error bound. Must be > 0.
	Bound float64
	// LosslessLevel is the DEFLATE effort (0 = default).
	LosslessLevel int
}

const magic = "MGG1"

// levels returns the number of dyadic levels for a grid of n points.
func levels(n int) int {
	l := 0
	for (1 << (l + 1)) <= n-1 {
		l++
	}
	return l
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

// maxElems caps the element count a shape may declare, which also keeps the
// extent arithmetic of lineStarts and the 1-D passes overflow-free.
const maxElems = 1 << 42

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

// decompose applies the separable multilevel transform over all dims.
func decompose(v []float64, dims []uint64) {
	for d := range dims {
		if dims[d] < 2 {
			continue
		}
		starts, n, stride := lineStarts(dims, d)
		forward1D(v, starts, n, stride)
	}
}

// recompose inverts decompose (dims in reverse order).
func recompose(v []float64, dims []uint64) {
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] < 2 {
			continue
		}
		starts, n, stride := lineStarts(dims, d)
		inverse1D(v, starts, n, stride)
	}
}

// CompressSlice compresses vals shaped dims under p. Every dimension must
// have at least 3 points.
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
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

	decompose(work, dims)

	// Start with bin = eb / 2^d and verify; shrink until the bound holds.
	bin := eb / float64(uint64(1)<<len(dims))
	var codes []int64
	for attempt := 0; ; attempt++ {
		if attempt > 12 {
			return nil, fmt.Errorf("mgard: could not satisfy bound %g", eb)
		}
		codes = quantize(work, bin)
		recon := dequantize(codes, bin)
		recompose(recon, dims)
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

func worstErr[T core.Float](orig []T, recon []float64) float64 {
	worst := 0.0
	for i := range orig {
		// Compare after rounding to the storage type, since decompression
		// returns T values.
		if d := math.Abs(float64(T(recon[i])) - float64(orig[i])); d > worst {
			worst = d
		}
	}
	return worst
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
	dtype, dims, n, err := core.ReadFloatShape(stream[4:], core.MaxRank, maxElems)
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
	// Positive and finite; checked before it joins the header so the header
	// holds nothing unvalidated.
	bin := math.Float64frombits(binBits)
	if math.IsNaN(bin) || bin <= 0 || bin > math.MaxFloat64 {
		return h, 0, ErrCorrupt
	}
	h.Bin = bin
	return h, pos, nil
}

// DecompressSlice decodes a stream produced by CompressSlice.
func DecompressSlice[T core.Float](stream []byte) ([]T, []uint64, error) {
	h, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	if h.DType != core.FloatDType[T]() {
		return nil, nil, fmt.Errorf("mgard: %w: stream holds %s", core.ErrInvalidDType, h.DType)
	}
	total, err := core.CheckedElems(h.Dims, maxElems)
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	// The payload is the code count and one varint per element.
	payload, err := lossless.Inflate(stream[pos:], (total+1)*binary.MaxVarintLen64)
	if err != nil {
		return nil, nil, err
	}
	count, sz := binary.Uvarint(payload)
	// Each code costs at least one payload byte, bounding allocations
	// against decompression bombs.
	if sz <= 0 || count > uint64(len(payload)) || count != total {
		return nil, nil, ErrCorrupt
	}
	codes := make([]int64, count)
	off := sz
	for i := range codes {
		v, sz := binary.Varint(payload[off:])
		if sz <= 0 {
			return nil, nil, ErrCorrupt
		}
		codes[i] = v
		off += sz
	}
	recon := dequantize(codes, h.Bin)
	recompose(recon, h.Dims)
	out := make([]T, total)
	for i, v := range recon {
		out[i] = T(v)
	}
	return out, h.Dims, nil
}
