package core

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// This file is the one checked shape prelude every framed stream shares: the
// overflow-safe element count, the rank byte and uvarint extents a header
// records, and the float32/float64 plumbing of the float codecs. A decoder
// passes its own caps as constants and keeps no parse loop of its own.
//
// The rule for any size read from a stream: bound it by subtraction from what
// remains (n > len(b)-off), never by addition (off+n > len(b)), which wraps.

// MaxRank is the highest rank a stream header records.
const MaxRank = 16

// elemCeiling is the ceiling on any element count: 2^60 elements of eight bytes
// still fit an int64 byte length, so a checked count never wraps when sized.
const elemCeiling = 1 << 60

// CheckedElems returns the element count of dims. It fails with
// ErrInvalidDims when dims is empty, an extent is zero, or the product
// exceeds max (itself capped at elemCeiling). Each extent is compared against
// max/n before n is multiplied by it, so the product cannot wrap.
func CheckedElems(dims []uint64, max uint64) (uint64, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("%w: no dimensions", ErrInvalidDims)
	}
	max = min(max, elemCeiling)
	n := uint64(1)
	for _, d := range dims {
		if d == 0 {
			return 0, fmt.Errorf("%w: zero extent in %v", ErrInvalidDims, dims)
		}
		if d > max/n {
			return 0, fmt.Errorf("%w: shape %v exceeds %d elements", ErrInvalidDims, dims, max)
		}
		n *= d
	}
	return n, nil
}

// Geometry reduces dims of any rank, checked against max as in CheckedElems,
// to an outer batch count and the trailing three extents in C order (nx
// slowest, nz fastest; the ones a lower rank lacks are 1). Predictors run
// over the trailing three dimensions and treat the leading ones as an
// independent batch. max must fit an int.
func Geometry(dims []uint64, max uint64) (outer, nx, ny, nz int, err error) {
	n, err := CheckedElems(dims, max)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ext := [3]uint64{1, 1, 1}
	inner := dims[len(dims)-min(len(dims), 3):]
	copy(ext[3-len(inner):], inner)
	return int(n / (ext[0] * ext[1] * ext[2])), int(ext[0]), int(ext[1]), int(ext[2]), nil
}

// AppendShape appends the header form of dims to b: a rank byte in
// [1, MaxRank], then one uvarint per extent.
func AppendShape(b []byte, dims []uint64) ([]byte, error) {
	if len(dims) == 0 || len(dims) > MaxRank {
		return nil, fmt.Errorf("%w: a stream header records rank 1 to %d, got %d", ErrInvalidDims, MaxRank, len(dims))
	}
	b = append(b, byte(len(dims)))
	for _, d := range dims {
		b = binary.AppendUvarint(b, d)
	}
	return b, nil
}

// ReadRank reads the rank byte that opens a recorded shape and checks it
// against [1, maxRank].
func ReadRank(b []byte, maxRank int) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("%w: missing rank byte", ErrCorrupt)
	}
	rank := int(b[0])
	if rank == 0 || rank > min(maxRank, MaxRank) {
		return 0, fmt.Errorf("%w: rank %d outside [1, %d]", ErrCorrupt, rank, maxRank)
	}
	return rank, nil
}

// ReadExtents reads rank uvarint extents, none zero, whose product is at
// most maxElems. It returns the extents, their product and the bytes
// consumed; every failure wraps ErrCorrupt.
func ReadExtents(b []byte, rank int, maxElems uint64) (dims []uint64, elems uint64, n int, err error) {
	dims = make([]uint64, rank)
	for i := range dims {
		v, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, 0, fmt.Errorf("%w: truncated extent %d", ErrCorrupt, i)
		}
		dims[i] = v
		n += sz
	}
	if elems, err = CheckedElems(dims, maxElems); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return dims, elems, n, nil
}

// ReadShape parses what AppendShape wrote from the front of b: ReadRank,
// then ReadExtents.
func ReadShape(b []byte, maxRank int, maxElems uint64) (dims []uint64, elems uint64, n int, err error) {
	rank, err := ReadRank(b, maxRank)
	if err != nil {
		return nil, 0, 0, err
	}
	dims, elems, n, err = ReadExtents(b[1:], rank, maxElems)
	return dims, elems, n + 1, err
}

// Float constrains the element types the floating-point codecs accept.
type Float interface {
	~float32 | ~float64
}

// FloatDType returns the DType of T.
func FloatDType[T Float]() DType {
	var zero T
	if unsafe.Sizeof(zero) == 4 {
		return DTypeFloat32
	}
	return DTypeFloat64
}

// AppendFloatShape appends the prelude a float codec's header carries after
// its magic: the dtype code (1 float32, 2 float64) and the shape.
func AppendFloatShape[T Float](b []byte, dims []uint64) ([]byte, error) {
	return AppendShape(append(b, byte(FloatDType[T]().Size()/4)), dims)
}

// ReadFloatShape parses what AppendFloatShape wrote; see ReadShape.
func ReadFloatShape(b []byte, maxRank int, maxElems uint64) (dtype DType, dims []uint64, n int, err error) {
	if len(b) == 0 || (b[0] != 1 && b[0] != 2) {
		return DTypeUnset, nil, 0, fmt.Errorf("%w: dtype code is neither 1 (float32) nor 2 (float64)", ErrCorrupt)
	}
	dims, _, n, err = ReadShape(b[1:], maxRank, maxElems)
	return DTypeFloat32 + DType(b[0]-1), dims, n + 1, err
}

// FromFloats wraps a float slice of either width without copying.
func FromFloats[T Float](v []T, dims ...uint64) *Data {
	return adopt(FloatDType[T](), v, dims)
}

// FloatsOf views d's payload as []T. Like Float32s, it panics when d holds
// another type.
func FloatsOf[T Float](d *Data) []T { return typedView[T](d, FloatDType[T]()) }

// CompressFloat runs the instantiation of a generic float encoder that
// matches in's element type and adopts the stream it returns into out.
func CompressFloat(in, out *Data,
	f32 func([]float32, []uint64) ([]byte, error),
	f64 func([]float64, []uint64) ([]byte, error)) error {
	var stream []byte
	var err error
	switch in.DType() {
	case DTypeFloat32:
		stream, err = f32(in.Float32s(), in.Dims())
	case DTypeFloat64:
		stream, err = f64(in.Float64s(), in.Dims())
	default:
		return fmt.Errorf("%w: only float32 and float64 are supported, got %s", ErrInvalidDType, in.DType())
	}
	if err != nil {
		return err
	}
	out.Become(NewBytes(stream))
	return nil
}

// DecompressFloat runs the instantiation of a generic float decoder that
// matches dtype, the element type the stream's header declares, and fills
// out with the values and dims it returns.
func DecompressFloat(dtype DType, stream []byte, out *Data,
	f32 func([]byte) ([]float32, []uint64, error),
	f64 func([]byte) ([]float64, []uint64, error)) error {
	switch dtype {
	case DTypeFloat32:
		return becomeFloats(out, f32, stream)
	case DTypeFloat64:
		return becomeFloats(out, f64, stream)
	}
	return fmt.Errorf("%w: stream declares %s, not a float type", ErrCorrupt, dtype)
}

func becomeFloats[T Float](out *Data, decode func([]byte) ([]T, []uint64, error), stream []byte) error {
	vals, dims, err := decode(stream)
	if err != nil {
		return err
	}
	out.Become(FromFloats(vals, dims...))
	return nil
}
