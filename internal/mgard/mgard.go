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
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Version is the compressor version reported through the plugin interface.
const Version = "0.2.0-go"

// ErrCorrupt reports a malformed mgard stream.
var ErrCorrupt = fmt.Errorf("mgard: %w", core.ErrCorrupt)

// ErrNonFinite reports NaN or Inf input, which the multilevel transform
// cannot represent.
var ErrNonFinite = errors.New("mgard: non-finite values unsupported")

// ErrTooSmall mirrors MGARD's requirement of at least 3 points per
// dimension.
var ErrTooSmall = errors.New("mgard: requires at least 3 points in each dimension")

// ErrBoundUnreachable reports a bound no quantization bin can meet: the
// verify loop ran out of attempts, or a coefficient's code left int64 range.
var ErrBoundUnreachable = errors.New("mgard: could not satisfy bound")

// Params configures a compression call.
type Params struct {
	// Mode selects absolute or value-range-relative interpretation of
	// Bound.
	Mode core.ErrorBoundMode
	// Bound is the pointwise error bound. Must be > 0.
	Bound float64
	// LosslessLevel is the DEFLATE effort, 1 to 9; 0 selects 1
	// (flate.BestSpeed), as in sz. Any level inflates the same way, so the
	// choice is not recorded in the stream.
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

// maxElems caps the element count a shape may declare, which also keeps the
// extent arithmetic of axes and the sweeps overflow-free.
const maxElems = 1 << 42

// axis is the geometry of one dimension of a C-order tensor: outer blocks,
// each of n points stride elements apart, so each block holds stride
// contiguous lines along the axis.
type axis struct{ outer, n, stride int }

// axes returns the geometry of every dimension of dims.
func axes(dims []uint64) []axis {
	ax := make([]axis, len(dims))
	outer := 1
	for d, n := range dims {
		ax[d] = axis{outer: outer, n: int(n)}
		outer *= int(n)
	}
	stride := 1
	for d := len(ax) - 1; d >= 0; d-- {
		ax[d].stride = stride
		stride *= ax[d].n
	}
	return ax
}

// sweep runs one level of the 1-D transform along a: each point at an odd
// multiple of h moves by sign times its prediction, the mean of its
// neighbours at even multiples of h (the left one alone at a line's end).
// Reads and writes are disjoint within a level, so the order of the lines
// is free and the inner loop runs across the stride contiguous ones.
func (a axis) sweep(v []float64, h int, sign float64) {
	s := a.stride
	for base := 0; base < a.outer*a.n*s; base += a.n * s {
		block := v[base : base+a.n*s]
		i := h
		for ; i+h < a.n; i += 2 * h {
			if s == 1 {
				block[i] += sign * (0.5 * (block[i-h] + block[i+h]))
				continue
			}
			cur, left, right := block[i*s:(i+1)*s], block[(i-h)*s:][:s], block[(i+h)*s:][:s]
			for j := range cur {
				cur[j] += sign * (0.5 * (left[j] + right[j]))
			}
		}
		if i < a.n {
			cur, left := block[i*s:(i+1)*s], block[(i-h)*s:][:s]
			for j := range cur {
				cur[j] += sign * left[j]
			}
		}
	}
}

// decompose replaces values with hierarchical surpluses, axis by axis and
// fine level to coarse.
func decompose(v []float64, ax []axis) {
	for _, a := range ax {
		for l := 1; l <= levels(a.n); l++ {
			a.sweep(v, 1<<(l-1), -1)
		}
	}
}

// recompose inverts decompose (axes in reverse order, coarse level first).
func recompose(v []float64, ax []axis) {
	for d := len(ax) - 1; d >= 0; d-- {
		for l := levels(ax[d].n); l >= 1; l-- {
			ax[d].sweep(v, 1<<(l-1), 1)
		}
	}
}

// code is x's quantization code at inv = 1/(2·bin); ok is false when the
// code leaves int64 range, where the conversion is implementation-defined.
func code(x, inv float64) (q int64, ok bool) {
	f := math.Floor(x*inv + 0.5)
	return int64(f), f >= -0x1p63 && f < 0x1p63
}

// varintLen is the length of binary.AppendVarint's encoding of q.
func varintLen(q int64) int {
	return (bits.Len64(uint64(q<<1)^uint64(q>>63)|1) + 6) / 7
}

// CompressSlice compresses vals shaped dims under p. Every dimension must
// have at least 3 points.
//
//pressio:hotpath measured by the benchmark's mgard.* per-layer rows
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	if p.Bound <= 0 || math.IsNaN(p.Bound) || math.IsInf(p.Bound, 0) {
		return nil, fmt.Errorf("mgard: bound %v must be positive and finite", p.Bound)
	}
	level := p.LosslessLevel
	if level == 0 {
		level = flate.BestSpeed
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
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	eb := p.Bound
	if p.Mode == core.BoundValueRangeRel {
		eb = p.Bound * (hi - lo)
		if eb <= 0 {
			eb = math.SmallestNonzeroFloat32
		}
	}

	ax := axes(dims)
	decompose(work, ax)

	// Start with bin = eb / 2^d and verify; shrink until the bound holds. A
	// constant field decomposes to its value on the coarsest grid and zero
	// surpluses; when that value's code would leave int64 range, bin = |c|/2
	// codes it as ±1 and reproduces the field exactly.
	bin := eb / float64(uint64(1)<<len(dims))
	if _, ok := code(lo, 1/(2*bin)); hi == lo && !ok {
		bin = math.Abs(lo) / 2
	}
	recon := make([]float64, total)
	size := 0
	for attempt := 0; ; attempt++ {
		if attempt > 12 {
			return nil, fmt.Errorf("%w %g", ErrBoundUnreachable, eb)
		}
		inv := 1 / (2 * bin)
		size = 0
		for i, x := range work {
			q, ok := code(x, inv)
			if !ok {
				// Smaller bins only make the code larger.
				return nil, fmt.Errorf("%w %g: a coefficient's code leaves int64 range", ErrBoundUnreachable, eb)
			}
			recon[i] = float64(q) * 2 * bin
			size += varintLen(q)
		}
		recompose(recon, ax)
		if worstErr(vals, recon) <= eb {
			break
		}
		bin /= 2
	}

	payload := make([]byte, 0, binary.MaxVarintLen64+size)
	payload = binary.AppendUvarint(payload, uint64(total))
	inv := 1 / (2 * bin)
	for _, x := range work {
		q, _ := code(x, inv)
		payload = binary.AppendVarint(payload, q)
	}
	out, err := core.AppendFloatShape[T]([]byte(magic), dims)
	if err != nil {
		return nil, err
	}
	out = binary.AppendUvarint(out, math.Float64bits(bin))
	return lossless.AppendDeflate(out, level, payload)
}

func worstErr[T core.Float](orig []T, recon []float64) float64 {
	worst := 0.0
	for i := range orig {
		// Compare after rounding to the storage type, since decompression
		// returns T values. A NaN error counts as unbounded.
		if d := math.Abs(float64(T(recon[i])) - float64(orig[i])); !(d <= worst) {
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
//
//pressio:hotpath measured by the benchmark's mgard.* per-layer rows
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
	recon := make([]float64, count)
	off := sz
	for i := range recon {
		q, sz := binary.Varint(payload[off:])
		if sz <= 0 {
			return nil, nil, ErrCorrupt
		}
		recon[i] = float64(q) * 2 * h.Bin
		off += sz
	}
	recompose(recon, axes(h.Dims))
	out := make([]T, total)
	for i, v := range recon {
		out[i] = T(v)
	}
	return out, h.Dims, nil
}
