// Package sz implements a prediction-based error-bounded lossy compressor
// in the style of SZ (Di & Cappello, IPDPS'16): a Lorenzo predictor over the
// reconstructed field, linear-scaling quantization of prediction residuals,
// canonical Huffman coding of the quantization codes, and a DEFLATE backend.
// Unpredictable points are stored losslessly, so the pointwise absolute
// error bound always holds.
//
// Like the original SZ, the package exposes a native API configured through
// a process-global parameter store (Init/Finalize) — the thread-safety
// hazard the paper discusses — plus explicit-parameter entry points that
// back the "sz_threadsafe" and "sz_omp" plugins.
package sz

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pressio/internal/core"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
	"pressio/internal/trace"
)

// Version is the compressor version reported through the plugin interface.
const Version = "2.1.10-go"

// ErrCorrupt reports a malformed sz stream.
var ErrCorrupt = errors.New("sz: corrupt stream")

// Params configures a compression call.
type Params struct {
	// Mode selects how Bound is interpreted (absolute or value-range
	// relative).
	Mode core.ErrorBoundMode
	// Bound is the error bound in the units Mode implies. It must be > 0.
	Bound float64
	// MaxQuantIntervals is the number of linear quantization intervals
	// (default 65536). Larger values capture wider residuals at the cost
	// of a larger Huffman alphabet.
	MaxQuantIntervals uint32
	// LosslessLevel is the DEFLATE effort for the backend stage, 1 to 9;
	// 0 selects 1 (flate.BestSpeed). The bytes DEFLATE sees are already
	// Huffman-coded, so more effort buys little: on a 16x128x128 field,
	// level 6 takes five times as long as level 1 for an output 0.5 %
	// smaller (DESIGN.md has the table). Any level inflates the same way,
	// so the choice is not recorded in the stream.
	LosslessLevel int
	// PointwiseRel, when > 0, selects SZ's PW_REL mode instead of
	// Mode/Bound: each point's error is bounded by PointwiseRel * |value|.
	// Implemented, as in SZ, by compressing the logarithms of the
	// magnitudes under an absolute bound of log1p(PointwiseRel), with the
	// signs and exact zeros carried alongside.
	PointwiseRel float64
}

// DefaultParams returns the defaults matching SZ's out-of-the-box
// configuration: value-range relative bound of 1e-4 and 65536 intervals.
func DefaultParams() Params {
	return Params{Mode: core.BoundValueRangeRel, Bound: 1e-4, MaxQuantIntervals: 65536}
}

func (p Params) normalized() (Params, error) {
	if p.Bound <= 0 || math.IsNaN(p.Bound) || math.IsInf(p.Bound, 0) {
		return p, fmt.Errorf("sz: error bound %v must be positive and finite", p.Bound)
	}
	if p.MaxQuantIntervals == 0 {
		p.MaxQuantIntervals = 65536
	}
	if p.MaxQuantIntervals < 4 {
		p.MaxQuantIntervals = 4
	}
	if p.MaxQuantIntervals > 1<<24 {
		return p, fmt.Errorf("sz: max_quant_intervals %d too large", p.MaxQuantIntervals)
	}
	if p.LosslessLevel == 0 {
		p.LosslessLevel = flate.BestSpeed
	}
	return p, nil
}

const magic = "SZG1"

// maxElems caps the element count a shape may declare: 2^42 elements is
// 32 TiB of float64s, far past any slab this codec meets.
const maxElems = 1 << 42

// CompressSlice compresses vals shaped dims (C order) under p and returns
// the self-describing stream.
//
//pressio:hotpath measured by the benchmark's sz.* per-layer rows
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
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
			// Constant (or empty) field: any positive bound works.
			eb = math.SmallestNonzeroFloat32
		}
	}
	radius := int64(p.MaxQuantIntervals / 2)

	codes := make([]uint32, n)
	recon := make([]T, n)

	// Stage spans expose where time goes inside the codec: the Lorenzo
	// prediction + linear quantization sweep vs the entropy/lossless encode.
	spPredict := trace.Start("sz.predict_quantize")
	q := quantizer[T]{eb: eb, twoEb: 2 * eb, radius: radius}
	slice := nx * ny * nz
	for o := 0; o < outer; o++ {
		s := slab[T]{v: vals[o*slice : (o+1)*slice], r: recon[o*slice : (o+1)*slice],
			c: codes[o*slice : (o+1)*slice], q: q}
		s.sweep(shape{nx, ny, nz})
	}
	// The sweep leaves outliers (code 0) in place; collecting them in scan
	// order afterwards writes them in the order the decoder scatters them.
	nOut := 0
	for _, c := range codes {
		if c == 0 {
			nOut++
		}
	}
	outliers := make([]T, 0, nOut)
	for i, c := range codes {
		if c == 0 {
			outliers = append(outliers, vals[i])
		}
	}
	spPredict.End()

	spEncode := trace.Start("sz.encode")
	defer spEncode.End()
	huff, err := huffman.Encode(codes, uint32(2*radius))
	if err != nil {
		return nil, err
	}
	outlierBytes := floatBytes(outliers)
	// Header and DEFLATE body go into one buffer, sized for the body stored:
	// DEFLATE gains little over Huffman output, and stored blocks cost 5
	// bytes per 16 KiB at worst.
	body := len(huff) + len(outlierBytes)
	out := make([]byte, 0, len(magic)+2+(len(dims)+4)*binary.MaxVarintLen64+body+5*(body>>14+2))
	out, err = core.AppendFloatShape[T](append(out, magic...), dims)
	if err != nil {
		return nil, err
	}
	out = binary.AppendUvarint(out, math.Float64bits(eb))
	out = binary.AppendUvarint(out, uint64(radius))
	out = binary.AppendUvarint(out, uint64(nOut))
	out = binary.AppendUvarint(out, uint64(len(huff)))
	return lossless.AppendDeflate(out, p.LosslessLevel, huff, outlierBytes)
}

// Header describes a compressed stream without decoding its payload.
type Header struct {
	DType core.DType
	Dims  []uint64
	Bound float64 // resolved absolute bound
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
	ebBits, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return h, 0, ErrCorrupt
	}
	pos += sz
	h.Bound = math.Float64frombits(ebBits)
	return h, pos, nil
}

// DecompressSlice decodes a stream produced by CompressSlice. The type
// parameter must match the stream's recorded element type.
//
//pressio:hotpath measured by the benchmark's sz.* per-layer rows
func DecompressSlice[T core.Float](stream []byte) ([]T, []uint64, error) {
	h, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	if h.DType != core.FloatDType[T]() {
		return nil, nil, fmt.Errorf("sz: %w: stream holds %s", core.ErrInvalidDType, h.DType)
	}
	radius64, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || radius64 == 0 || radius64 > 1<<23 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	nOut, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	huffLen, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	outer, nx, ny, nz, err := core.Geometry(h.Dims, maxElems)
	if err != nil {
		return nil, nil, err
	}
	n := outer * nx * ny * nz
	// The header bounds the body before a byte of it is inflated: n codes
	// cost at most what Huffman can spend on n symbols, and at most n of
	// them are outliers.
	if nOut > uint64(n) || huffLen > huffman.MaxEncodedLen(uint64(n), uint32(2*radius64)) {
		return nil, nil, ErrCorrupt
	}
	spDecode := trace.Start("sz.decode")
	body, err := lossless.Inflate(stream[pos:], huffLen+nOut*uint64(h.DType.Size()))
	if err != nil {
		spDecode.End()
		return nil, nil, err
	}
	if huffLen > uint64(len(body)) {
		spDecode.End()
		return nil, nil, ErrCorrupt
	}
	codes, _, err := huffman.Decode(body[:huffLen])
	if err != nil {
		spDecode.End()
		return nil, nil, err
	}
	outliers, err := floatsFrom[T](body[huffLen:], nOut)
	spDecode.End()
	if err != nil {
		return nil, nil, err
	}
	if len(codes) != n {
		return nil, nil, ErrCorrupt
	}
	recon := make([]T, n)
	spRecon := trace.Start("sz.reconstruct")
	defer spRecon.End()
	// Outliers go in first, in scan order; the sweep then leaves code-0
	// positions as they are.
	oi := 0
	for i, c := range codes {
		if c == 0 {
			if oi == len(outliers) {
				return nil, nil, ErrCorrupt
			}
			recon[i] = outliers[oi]
			oi++
		}
	}
	if oi != len(outliers) {
		return nil, nil, ErrCorrupt
	}
	q := quantizer[T]{twoEb: 2 * h.Bound, radius: int64(radius64)}
	slice := nx * ny * nz
	for o := 0; o < outer; o++ {
		s := slab[T]{r: recon[o*slice : (o+1)*slice], c: codes[o*slice : (o+1)*slice], q: q}
		s.sweep(shape{nx, ny, nz})
	}
	return recon, h.Dims, nil
}

func sliceRange[T core.Float](vals []T) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

func floatBytes[T core.Float](vals []T) []byte {
	var zero T
	if _, ok := any(zero).(float32); ok {
		out := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
		}
		return out
	}
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(float64(v)))
	}
	return out
}

func floatsFrom[T core.Float](b []byte, n uint64) ([]T, error) {
	var zero T
	size := uint64(4)
	if _, ok := any(zero).(float64); ok {
		size = 8
	}
	// Divide rather than multiply: n*size can wrap for a hostile count.
	if n > uint64(len(b))/size {
		return nil, ErrCorrupt
	}
	out := make([]T, n)
	for i := uint64(0); i < n; i++ {
		if size == 4 {
			out[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		} else {
			out[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out, nil
}
