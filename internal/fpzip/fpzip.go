// Package fpzip implements a predictive floating-point compressor in the
// style of fpzip (Lindstrom & Isenburg, TVCG'06): floats are mapped to
// order-preserving unsigned integers, predicted with a Lorenzo predictor
// over the reconstructed field, and the prediction residuals are entropy
// coded: the residual's magnitude class with an adaptive range coder, its
// remaining bits raw.
//
// # Stream format
//
// Every version opens with the same header: a 4-byte magic, a dtype byte
// (1 float32, 2 float64), a rank byte, one uvarint per extent and a
// precision byte. The magic is the version; the encoder writes the newest
// and the decoder reads every version, so a faster encoder never strands
// yesterday's bytes.
//
//	FPZ1  header · range-coded bytes
//	      Each residual's k-1 raw bits travel through the range coder as
//	      equiprobable bits, MSB first, right after its class. No longer
//	      written.
//	FPZ2  header · uvarint(len(rc)) · rc bytes · raw-bit bytes
//	      rc holds only the classes. The k-1 raw bits of every residual
//	      with k > 1 are packed in coding order into a bitstream
//	      (LSB-first, one WriteBits per residual) that runs to the end of
//	      the stream, so they cost a shift and a mask, not k-1 trips
//	      through the coder. The classes are coded in unary, as k+1
//	      adaptive binary decisions. No longer written.
//	FPZ3  The FPZ2 layout, but rc holds each class as one symbol of an
//	      adaptive 65-symbol frequency model (rangecoder.Model).
//
// fpzip is precision-based rather than error-bound based: lossy operation
// truncates the low-order bits of the mapped integers, bounding the
// *relative* error. Full precision is exactly lossless. As in the original,
// only floating point inputs are accepted — the example the paper's §II
// uses for why a generic interface must carry datatype metadata.
package fpzip

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pressio/internal/bitstream"
	"pressio/internal/core"
	"pressio/internal/rangecoder"
)

// Version is the compressor version reported through the plugin interface.
const Version = "1.4.0-go"

// ErrCorrupt reports a malformed fpzip stream.
var ErrCorrupt = fmt.Errorf("fpzip: %w", core.ErrCorrupt)

// Params configures a compression call.
type Params struct {
	// Precision is the number of kept bits per value: 1..32 for float32,
	// 1..64 for float64. 0 selects full (lossless) precision.
	Precision uint
}

const (
	magicV1 = "FPZ1" // decoded, never written
	magicV2 = "FPZ2" // decoded, never written
	magic   = "FPZ3"
	classes = rangecoder.Symbols // residual magnitude classes: bits.Len64, 0..64
)

// monotone mapping between floats and unsigned integers: negative floats
// map below positives and uint ordering matches float ordering.
func f32ToOrd(f float32) uint64 {
	b := math.Float32bits(f)
	if b&0x80000000 != 0 {
		return uint64(^b)
	}
	return uint64(b | 0x80000000)
}

func ordToF32(u uint64) float32 {
	b := uint32(u)
	if b&0x80000000 != 0 {
		return math.Float32frombits(b &^ 0x80000000)
	}
	return math.Float32frombits(^b)
}

func f64ToOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b&0x8000000000000000 != 0 {
		return ^b
	}
	return b | 0x8000000000000000
}

func ordToF64(u uint64) float64 {
	if u&0x8000000000000000 != 0 {
		return math.Float64frombits(u &^ 0x8000000000000000)
	}
	return math.Float64frombits(^u)
}

func width[T core.Float]() uint { return 8 * uint(core.FloatDType[T]().Size()) }

// maxElems caps the element count a stream may declare. It is a sanity cap
// against decompression bombs: the adaptive coder has no per-element minimum
// bit cost to check a declared shape against.
const maxElems = 1 << 33

// lorenzo computes the restricted Lorenzo prediction over mapped integers.
// Arithmetic is modular, which is harmless: residuals stay small when the
// field is smooth and remain correct otherwise.
func lorenzo(r []uint64, x, y, z, ny, nz int) uint64 {
	base := (x*ny + y) * nz
	switch {
	case x > 0 && y > 0 && z > 0:
		pm := ((x-1)*ny + y) * nz
		qm := ((x-1)*ny + y - 1) * nz
		rm := (x*ny + y - 1) * nz
		return r[pm+z] + r[rm+z] + r[base+z-1] - r[qm+z] - r[pm+z-1] - r[rm+z-1] + r[qm+z-1]
	case x > 0 && y > 0:
		pm := ((x-1)*ny + y) * nz
		qm := ((x-1)*ny + y - 1) * nz
		rm := (x*ny + y - 1) * nz
		return r[pm+z] + r[rm+z] - r[qm+z]
	case x > 0 && z > 0:
		pm := ((x-1)*ny + y) * nz
		return r[pm+z] + r[base+z-1] - r[pm+z-1]
	case y > 0 && z > 0:
		rm := (x*ny + y - 1) * nz
		return r[rm+z] + r[base+z-1] - r[rm+z-1]
	case x > 0:
		return r[((x-1)*ny+y)*nz+z]
	case y > 0:
		return r[(x*ny+y-1)*nz+z]
	case z > 0:
		return r[base+z-1]
	default:
		return 0
	}
}

// coder holds the adaptive contexts of the class code: the class model
// (FPZ3), or one probability per position of the unary code (FPZ1, FPZ2)
// when model is nil.
type coder struct {
	model      *rangecoder.Model
	classProbs [66]rangecoder.Prob
}

func newCoder() *coder {
	var c coder
	for i := range c.classProbs {
		c.classProbs[i] = rangecoder.NewProb()
	}
	return &c
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeResidual reads one residual: its class from dec and its raw bits
// from raw, or from dec too when raw is nil (FPZ1). rawBits accumulates what
// was taken from raw so the caller can tell a truncated segment.
//
//pressio:hotpath measured by the benchmark's fpzip.* per-layer rows
func (c *coder) decodeResidual(dec *rangecoder.Decoder, raw *bitstream.Reader, rawBits *uint64) (int64, error) {
	var k uint
	if c.model != nil {
		s, err := dec.DecodeSymbol(c.model)
		if err != nil {
			return 0, err
		}
		k = min(uint(s), classes-1) // a no-op that bounds k for the taint check
	} else {
		for k < classes && dec.DecodeBit(&c.classProbs[k]) == 1 {
			k++
		}
	}
	if k == 0 {
		return 0, nil
	}
	var z uint64 = 1 << (k - 1)
	rem := k - 1
	switch {
	case raw != nil:
		z |= raw.ReadBits(rem)
		*rawBits += uint64(rem)
	case rem > 32:
		z |= uint64(dec.DecodeBitsRaw(rem-32)) << 32
		z |= uint64(dec.DecodeBitsRaw(32))
	default:
		z |= uint64(dec.DecodeBitsRaw(rem))
	}
	return unzigzag(z), nil
}

// CompressSlice compresses vals shaped dims (C order).
//
//pressio:hotpath measured by the benchmark's fpzip.* per-layer rows
func CompressSlice[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	w := width[T]()
	prec := p.Precision
	if prec == 0 {
		prec = w
	}
	if prec > w {
		return nil, fmt.Errorf("fpzip: precision %d exceeds %d-bit width", prec, w)
	}
	outer, nx, ny, nz, err := core.Geometry(dims, maxElems)
	if err != nil {
		return nil, err
	}
	n := outer * nx * ny * nz
	if n != len(vals) {
		return nil, fmt.Errorf("fpzip: %w: dims %v describe %d elements, have %d",
			core.ErrInvalidDims, dims, n, len(vals))
	}
	shift := w - prec

	hdr, err := core.AppendFloatShape[T]([]byte(magic), dims)
	if err != nil {
		return nil, err
	}
	hdr = append(hdr, byte(prec))

	enc := rangecoder.NewEncoder()
	raw := bitstream.NewWriter(len(vals))
	model := rangecoder.NewModel()
	recon := make([]uint64, nx*ny*nz)
	sliceLen := nx * ny * nz
	for o := 0; o < outer; o++ {
		src := vals[o*sliceLen : (o+1)*sliceLen]
		i := 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					var u uint64
					if w == 32 {
						u = f32ToOrd(float32(src[i]))
					} else {
						u = f64ToOrd(float64(src[i]))
					}
					u >>= shift
					pred := lorenzo(recon, x, y, z, ny, nz)
					r := zigzag(int64(u - pred))
					k := bits.Len64(r) // magnitude class: 0 for r==0
					enc.EncodeSymbol(model, k)
					if k > 1 {
						// MSB is implied; WriteBits keeps the k-1 low bits.
						raw.WriteBits(r, uint(k-1))
					}
					recon[i] = u
					i++
				}
			}
		}
	}
	rc, rawBytes := enc.Finish(), raw.Bytes()
	out := make([]byte, 0, len(hdr)+binary.MaxVarintLen64+len(rc)+len(rawBytes))
	out = append(out, hdr...)
	out = binary.AppendUvarint(out, uint64(len(rc)))
	out = append(out, rc...)
	return append(out, rawBytes...), nil
}

// Header describes a compressed stream.
type Header struct {
	DType     core.DType
	Dims      []uint64
	Precision uint
}

// ParseHeader reads the stream header of any format version.
func ParseHeader(stream []byte) (Header, int, error) {
	var h Header
	if len(stream) < 4 || !slices.Contains([]string{magicV1, magicV2, magic}, string(stream[:4])) {
		return h, 0, ErrCorrupt
	}
	dtype, dims, n, err := core.ReadFloatShape(stream[4:], core.MaxRank, maxElems)
	if err != nil {
		return h, 0, ErrCorrupt
	}
	h.DType, h.Dims = dtype, dims
	pos := 4 + n
	if pos >= len(stream) {
		return h, 0, ErrCorrupt
	}
	h.Precision = uint(stream[pos])
	pos++
	return h, pos, nil
}

// DecompressSlice decodes a stream produced by CompressSlice.
//
//pressio:hotpath measured by the benchmark's fpzip.* per-layer rows
func DecompressSlice[T core.Float](stream []byte) ([]T, []uint64, error) {
	h, pos, err := ParseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	w := width[T]()
	if h.DType != core.FloatDType[T]() {
		return nil, nil, fmt.Errorf("fpzip: %w: stream holds %s", core.ErrInvalidDType, h.DType)
	}
	if h.Precision == 0 || h.Precision > w {
		return nil, nil, ErrCorrupt
	}
	shift := w - h.Precision
	outer, nx, ny, nz, err := core.Geometry(h.Dims, maxElems)
	if err != nil {
		return nil, nil, err
	}
	n := outer * nx * ny * nz
	// FPZ2 and FPZ3 split the payload into the range-coded classes and the
	// raw bits; in FPZ1 the whole payload is range coded.
	version := string(stream[:4])
	rc := stream[pos:]
	var raw *bitstream.Reader
	var rawSeg []byte
	if version != magicV1 {
		rcLen, sz := binary.Uvarint(rc)
		if sz <= 0 || rcLen > uint64(len(rc)-sz) {
			return nil, nil, fmt.Errorf("%w: range-coded segment runs past the stream", ErrCorrupt)
		}
		rc, rawSeg = rc[sz:sz+int(rcLen)], rc[sz+int(rcLen):]
		raw = bitstream.NewReader(rawSeg)
	}
	// Every class costs some bits even on constant data, where the Lorenzo
	// prediction is exact, so a genuine stream cannot declare more elements
	// than its rc bytes carry at that cost; the check stops decompression
	// bombs. The unary code tops out near ~400 values per byte and is held
	// to 2048; the class model's ceiling follows from its constants.
	cdr := newCoder()
	perByte := uint64(2048)
	if version == magic {
		cdr.model = rangecoder.NewModel()
		perByte = rangecoder.MaxSymbolsPerByte
	}
	if uint64(n) > (uint64(len(rc))+2)*perByte {
		return nil, nil, fmt.Errorf("%w: %d values declared by a %d byte payload",
			ErrCorrupt, n, len(rc))
	}
	out := make([]T, n)
	dec := rangecoder.NewDecoder(rc)
	var rawBits uint64
	recon := make([]uint64, nx*ny*nz)
	sliceLen := nx * ny * nz
	for o := 0; o < outer; o++ {
		dst := out[o*sliceLen : (o+1)*sliceLen]
		i := 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					d, err := cdr.decodeResidual(dec, raw, &rawBits)
					if err != nil {
						return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
					}
					u := lorenzo(recon, x, y, z, ny, nz) + uint64(d)
					if w == 32 {
						u &= 0xffffffff >> shift
					} else if shift > 0 {
						u &= ^uint64(0) >> shift
					}
					recon[i] = u
					if w == 32 {
						dst[i] = T(ordToF32(u << shift))
					} else {
						dst[i] = T(ordToF64(u << shift))
					}
					i++
				}
			}
		}
	}
	// The reader pads with zeros past its end, so a cut raw segment decodes
	// to plausible values: what the residuals consumed must have been there.
	if rawBits > 8*uint64(len(rawSeg)) {
		return nil, nil, fmt.Errorf("%w: raw-bit segment ends %d bits short", ErrCorrupt, rawBits-8*uint64(len(rawSeg)))
	}
	return out, h.Dims, nil
}
