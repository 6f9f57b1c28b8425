package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pressio/internal/bitstream"
	"pressio/internal/core"
	"pressio/internal/trace"
)

// Version is the compressor version reported through the plugin interface.
const Version = "0.5.5-go"

// ErrCorrupt reports a malformed zfp stream.
var ErrCorrupt = errors.New("zfp: corrupt stream")

// Mode selects the zfp compression mode.
type Mode int

const (
	// ModeFixedAccuracy bounds the pointwise absolute error by Tolerance.
	ModeFixedAccuracy Mode = iota
	// ModeFixedRate spends exactly Rate bits per value, giving fixed-size
	// blocks (random access, no error bound).
	ModeFixedRate
	// ModeFixedPrecision keeps Precision bit planes per block (bounds the
	// relative error).
	ModeFixedPrecision
)

// String names the mode as used in plugin options.
func (m Mode) String() string {
	switch m {
	case ModeFixedAccuracy:
		return "accuracy"
	case ModeFixedRate:
		return "rate"
	case ModeFixedPrecision:
		return "precision"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "accuracy", "abs":
		return ModeFixedAccuracy, nil
	case "rate":
		return ModeFixedRate, nil
	case "precision":
		return ModeFixedPrecision, nil
	default:
		return 0, fmt.Errorf("%w: zfp mode %q", core.ErrInvalidOption, s)
	}
}

// Params configures a compression call.
type Params struct {
	Mode      Mode
	Rate      float64 // bits per value, ModeFixedRate
	Precision uint    // bit planes, ModeFixedPrecision
	Tolerance float64 // absolute error bound, ModeFixedAccuracy
}

// DefaultParams matches zfp's common default: fixed accuracy 1e-3.
func DefaultParams() Params { return Params{Mode: ModeFixedAccuracy, Tolerance: 1e-3} }

const (
	magic    = "ZFG1"
	ebits    = 12   // biased exponent field width
	ebias    = 1086 // covers the double exponent range after frexp
	hugeBits = uint64(1) << 60
)

// resolved holds the per-stream coding parameters derived from Params.
type resolved struct {
	maxbits uint64
	maxprec uint
	minexp  int
	pad     bool // fixed-rate: pad every block to maxbits
}

func resolve(p Params, intprec uint, blockSize int) (resolved, error) {
	switch p.Mode {
	case ModeFixedRate:
		// The constant clause restates the widest possible dynamic cap
		// (intprec <= 64) so the bound holds on its own.
		if p.Rate <= 0 || p.Rate > 128 || p.Rate > float64(intprec)*2 {
			return resolved{}, fmt.Errorf("zfp: rate %v out of range", p.Rate)
		}
		maxbits := uint64(p.Rate*float64(blockSize) + 0.5)
		if min := uint64(ebits + 2); maxbits < min {
			maxbits = min
		}
		return resolved{maxbits: maxbits, maxprec: intprec, minexp: -1075, pad: true}, nil
	case ModeFixedPrecision:
		if p.Precision == 0 || p.Precision > 64 || p.Precision > intprec {
			return resolved{}, fmt.Errorf("zfp: precision %d out of range (1..%d)", p.Precision, intprec)
		}
		return resolved{maxbits: hugeBits, maxprec: p.Precision, minexp: -1075}, nil
	case ModeFixedAccuracy:
		if p.Tolerance <= 0 || math.IsNaN(p.Tolerance) || math.IsInf(p.Tolerance, 0) {
			return resolved{}, fmt.Errorf("zfp: tolerance %v must be positive and finite", p.Tolerance)
		}
		minexp := int(math.Floor(math.Log2(p.Tolerance)))
		// Pin to the double exponent range: tolerance may be derived from
		// input values (value-range-relative bounds), so the exponent must
		// not be trusted to land in range on its own.
		if minexp < -1075 {
			minexp = -1075
		}
		if minexp > 1024 {
			minexp = 1024
		}
		return resolved{maxbits: hugeBits, maxprec: intprec, minexp: minexp}, nil
	default:
		return resolved{}, fmt.Errorf("zfp: unknown mode %d", p.Mode)
	}
}

// blockPrecision computes the number of bit planes to code for a block with
// maximum exponent emax, following the zfp reference precision() function.
// The 2*(d+1) guard planes absorb transform round-off so the tolerance
// holds.
func (r resolved) blockPrecision(emax, d int) uint {
	p := emax - r.minexp + 2*(d+1)
	if p < 0 {
		p = 0
	}
	if uint(p) > r.maxprec {
		return r.maxprec
	}
	return uint(p)
}

// maxElems caps the element count a shape may declare.
const maxElems = 1 << 42

// geometry maps C-order dims onto the codec's Fortran-order spatial extents
// (x fastest) plus an outer batch count for rank > 3; d is the block
// dimensionality.
func geometry(dims []uint64) (outer, sx, sy, sz, d int, err error) {
	outer, sz, sy, sx, err = core.Geometry(dims, maxElems)
	return outer, sx, sy, sz, min(len(dims), 3), err
}

func intprecOf[T core.Float]() uint { return 8 * uint(core.FloatDType[T]().Size()) }

// CompressSlice compresses vals shaped dims (C order) and returns the
// self-describing stream.
//
//pressio:hotpath measured by the benchmark's zfp.* per-layer rows
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	outer, sx, sy, sz, d, err := geometry(dims)
	if err != nil {
		return nil, err
	}
	n := outer * sx * sy * sz
	if n != len(vals) {
		return nil, fmt.Errorf("zfp: %w: dims %v describe %d elements, have %d",
			core.ErrInvalidDims, dims, n, len(vals))
	}
	intprec := intprecOf[T]()
	blockSize := 1 << (2 * d)
	res, err := resolve(p, intprec, blockSize)
	if err != nil {
		return nil, err
	}

	// Header and payload share one buffer, written once: the header is a
	// whole number of bytes, so the blocks start on the same bits as in a
	// separate stream. Half the input size holds the payload at the ratios
	// (≥ 2) lossy modes are used for; a denser stream grows it by append.
	hdr, err := core.AppendFloatShape[T](append(make([]byte, 0, 64), magic...), dims)
	if err != nil {
		return nil, err
	}
	hdr = append(hdr, byte(p.Mode))
	hdr = binary.AppendUvarint(hdr, res.maxbits)
	hdr = binary.AppendUvarint(hdr, uint64(res.maxprec))
	hdr = binary.AppendUvarint(hdr, uint64(res.minexp+2048))
	w := bitstream.NewWriter(len(hdr) + n*int(intprec)/16 + 8)
	for _, b := range hdr {
		w.WriteBits(uint64(b), 8)
	}

	var fblock [64]float64
	var iblock [64]int64
	var ublock [64]uint64

	// The gather/transform/encode sweep is zfp's entire hot loop; one stage
	// span suffices to attribute codec time in a pipeline trace.
	sp := trace.Start("zfp.encode_blocks")
	bx := (sx + 3) / 4
	by := (sy + 3) / 4
	bz := (sz + 3) / 4
	sliceLen := sx * sy * sz
	for o := 0; o < outer; o++ {
		base := vals[o*sliceLen : (o+1)*sliceLen]
		for z := 0; z < bz; z++ {
			for y := 0; y < by; y++ {
				for x := 0; x < bx; x++ {
					gather(base, &fblock, x*4, y*4, z*4, sx, sy, sz, d)
					encodeBlock(w, &fblock, &iblock, &ublock, intprec, d, res)
				}
			}
		}
	}
	sp.End()
	return w.Take(), nil
}

// clamp caps an index to the last valid position, replicating the edge value
// for partial blocks.
func clamp(v, hi int) int {
	if v >= hi {
		return hi - 1
	}
	return v
}

// gather copies a 4^d block starting at (x0,y0,z0) into dst, replicating
// edge values for partial blocks (the source of the padding inefficiency
// for extents smaller than 4). Interior blocks, nearly all of them, copy
// rows of four without clamping.
func gather[T core.Float](src []T, dst *[64]float64, x0, y0, z0, sx, sy, sz, d int) {
	nj, nk := 4, 4 // the block's extent along y and z: 1 on an axis it lacks
	if d < 3 {
		nk = 1
	}
	if d < 2 {
		nj = 1
	}
	interior := x0+4 <= sx && y0+nj <= sy && z0+nk <= sz
	for k := 0; k < nk; k++ {
		zz := clamp(z0+k, sz)
		for j := 0; j < nj; j++ {
			row := (zz*sy+clamp(y0+j, sy))*sx + x0
			o := (4*j + 16*k) & 63
			if interior {
				v := src[row : row+4 : row+4]
				dst[o], dst[o+1], dst[o+2], dst[o+3] = float64(v[0]), float64(v[1]), float64(v[2]), float64(v[3])
				continue
			}
			for i := 0; i < 4; i++ {
				dst[(o+i)&63] = float64(src[row+clamp(x0+i, sx)-x0])
			}
		}
	}
}

// scatter writes a decoded block back, skipping padded lanes (an axis the
// block lacks has extent 1, so it is cut to one lane like any short edge).
func scatter[T core.Float](dst []T, src *[64]float64, x0, y0, z0, sx, sy, sz int) {
	ni, nj, nk := min(4, sx-x0), min(4, sy-y0), min(4, sz-z0)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			row := ((z0+k)*sy+y0+j)*sx + x0
			o := (4*j + 16*k) & 63
			if ni == 4 {
				v := dst[row : row+4 : row+4]
				v[0], v[1], v[2], v[3] = T(src[o]), T(src[o+1]), T(src[o+2]), T(src[o+3])
				continue
			}
			for i := 0; i < ni; i++ {
				dst[row+i] = T(src[(o+i)&63])
			}
		}
	}
}

func maxExponent(block []float64) (int, bool) {
	maxAbs := 0.0
	for _, v := range block {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 0, false
	}
	_, e := math.Frexp(maxAbs)
	return e, true
}

// encodeBlock codes one gathered block.
func encodeBlock(w *bitstream.Writer, fblock *[64]float64, iblock *[64]int64, ublock *[64]uint64,
	intprec uint, d int, res resolved) {
	size := 1 << (2 * d)
	emax, nonzero := maxExponent(fblock[:size])
	var used uint64
	if !nonzero {
		w.WriteBit(0)
		used = 1
	} else {
		w.WriteBits(1|uint64(emax+ebias)<<1, 1+ebits)
		used = 1 + ebits
		// Fixed point conversion with two guard bits.
		scale := math.Ldexp(1, int(intprec)-2-emax)
		for i, v := range fblock[:size] {
			iblock[i] = int64(scale * v)
		}
		fwdXform(iblock, d)
		perm := &perms[d]
		if intprec == 32 {
			for i := range ublock[:size] {
				ublock[i] = uint64((uint32(int32(iblock[perm[i]&63])) + 0xaaaaaaaa) ^ 0xaaaaaaaa)
			}
		} else {
			for i := range ublock[:size] {
				ublock[i] = int2nb(iblock[perm[i]&63])
			}
		}
		budget := res.maxbits - used
		used += encodeInts(w, ublock, uint(size), intprec, res.blockPrecision(emax, d), budget)
	}
	if res.pad {
		for used < res.maxbits {
			chunk := res.maxbits - used
			if chunk > 64 {
				chunk = 64
			}
			w.WriteBits(0, uint(chunk))
			used += chunk
		}
	}
}

// decodeBlock mirrors encodeBlock and returns the number of bits the block
// took from the stream.
func decodeBlock(r *bitstream.Reader, fblock *[64]float64, iblock *[64]int64, ublock, planes *[64]uint64,
	intprec uint, d int, res resolved) uint64 {
	size := 1 << (2 * d)
	var used uint64
	if head := r.Peek(1 + ebits); head&1 == 0 {
		r.Skip(1)
		*fblock = [64]float64{}
		used = 1
	} else {
		r.Skip(1 + ebits)
		emax := int(head>>1) - ebias
		used = 1 + ebits
		budget := res.maxbits - used
		used += decodeInts(r, ublock, planes, uint(size), intprec, res.blockPrecision(emax, d), budget)
		perm := &perms[d]
		if intprec == 32 {
			for i, u := range ublock[:size] {
				iblock[perm[i]&63] = int64(int32((uint32(u) ^ 0xaaaaaaaa) - 0xaaaaaaaa))
			}
		} else {
			for i, u := range ublock[:size] {
				iblock[perm[i]&63] = nb2int(u)
			}
		}
		invXform(iblock, d)
		scale := math.Ldexp(1, emax+2-int(intprec))
		for i, v := range iblock[:size] {
			fblock[i] = scale * float64(v)
		}
	}
	if res.pad {
		for used < res.maxbits {
			chunk := res.maxbits - used
			if chunk > 64 {
				chunk = 64
			}
			r.ReadBits(uint(chunk))
			used += chunk
		}
	}
	return used
}

// Header describes a compressed stream.
type Header struct {
	DType core.DType
	Dims  []uint64
	Mode  Mode
}

// ParseHeader reads the stream header, returning it and the offset of the
// block payload.
func ParseHeader(stream []byte) (Header, resolved, int, error) {
	var h Header
	if len(stream) < 4 || string(stream[:4]) != magic {
		return h, resolved{}, 0, ErrCorrupt
	}
	dtype, dims, n, err := core.ReadFloatShape(stream[4:], core.MaxRank, maxElems)
	if err != nil {
		return h, resolved{}, 0, ErrCorrupt
	}
	h.DType, h.Dims = dtype, dims
	pos := 4 + n
	if pos >= len(stream) {
		return h, resolved{}, 0, ErrCorrupt
	}
	h.Mode = Mode(stream[pos])
	if h.Mode != ModeFixedAccuracy && h.Mode != ModeFixedRate && h.Mode != ModeFixedPrecision {
		return h, resolved{}, 0, ErrCorrupt
	}
	pos++
	var res resolved
	maxbits, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || maxbits == 0 {
		return h, resolved{}, 0, ErrCorrupt
	}
	// Fixed-rate streams pad every block out to maxbits, so an unbounded
	// value turns decoding into a near-infinite spin. Genuine encoders emit
	// at most 2*intprec bits per value over a <=64-value block and at least
	// ebits+2 bits total (the floor resolve enforces, which also keeps the
	// per-block budget subtraction from underflowing).
	if h.Mode == ModeFixedRate && (maxbits < ebits+2 || maxbits > 2*64*64) {
		return h, resolved{}, 0, ErrCorrupt
	}
	pos += sz
	maxprec, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || maxprec > 64 {
		return h, resolved{}, 0, ErrCorrupt
	}
	pos += sz
	minexpBiased, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || minexpBiased > 4096 {
		return h, resolved{}, 0, ErrCorrupt
	}
	pos += sz
	res.maxbits = maxbits
	res.maxprec = uint(maxprec)
	res.minexp = int(minexpBiased) - 2048
	res.pad = h.Mode == ModeFixedRate
	return h, res, pos, nil
}

// DecompressSlice decodes a stream produced by CompressSlice.
//
//pressio:hotpath measured by the benchmark's zfp.* per-layer rows
func DecompressSlice[T core.Float](stream []byte) ([]T, []uint64, error) {
	h, res, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	if h.DType != core.FloatDType[T]() {
		return nil, nil, fmt.Errorf("zfp: %w: stream holds %s", core.ErrInvalidDType, h.DType)
	}
	outer, sx, sy, sz, d, err := geometry(h.Dims)
	if err != nil {
		return nil, nil, err
	}
	n := outer * sx * sy * sz
	// Every block costs at least one bit (the zero-block flag), so the
	// block count of a genuine stream is bounded by the payload's bit
	// length — rejecting 20-byte "bombs" that declare gigavoxel shapes.
	blocks := uint64(outer) * ((uint64(sx) + 3) / 4) *
		((uint64(sy) + 3) / 4) * ((uint64(sz) + 3) / 4)
	if blocks > uint64(len(stream)-pos)*8+64 {
		return nil, nil, fmt.Errorf("%w: %d blocks declared by a %d byte stream",
			ErrCorrupt, blocks, len(stream)-pos)
	}
	intprec := intprecOf[T]()
	out := make([]T, n)
	r := bitstream.NewReader(stream[pos:])
	// ZFG1 carries no payload length, so a truncated body is recognised by
	// the blocks consuming more bits than the payload holds (past its end
	// the reader supplies zeros, which decode as plausible values).
	avail := uint64(len(stream)-pos) * 8
	var used uint64
	var fblock [64]float64
	var iblock [64]int64
	var ublock, planes [64]uint64
	sp := trace.Start("zfp.decode_blocks")
	defer sp.End()
	bx := (sx + 3) / 4
	by := (sy + 3) / 4
	bz := (sz + 3) / 4
	sliceLen := sx * sy * sz
	for o := 0; o < outer; o++ {
		base := out[o*sliceLen : (o+1)*sliceLen]
		for z := 0; z < bz; z++ {
			for y := 0; y < by; y++ {
				for x := 0; x < bx; x++ {
					used += decodeBlock(r, &fblock, &iblock, &ublock, &planes, intprec, d, res)
					if used > avail {
						return nil, nil, fmt.Errorf("%w: truncated, blocks need more than the %d payload bytes", ErrCorrupt, avail/8)
					}
					scatter(base, &fblock, x*4, y*4, z*4, sx, sy, sz)
				}
			}
		}
	}
	return out, h.Dims, nil
}
