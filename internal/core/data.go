package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Data is the buffer abstraction of the framework (pressio_data in the
// original). It couples raw storage with the element type and the dimensions
// of the dense tensor it holds. Dimensions use C (row-major) ordering: the
// first dimension is the slowest varying, matching the paper's uniform
// dimension-ordering contract. Plugins that natively want Fortran ordering
// (e.g. the zfp-family codec) translate internally.
//
// A Data may also be "empty": it describes a type and shape but owns no
// storage yet. Empty Data values are used as output hints, exactly like
// pressio_data_new_empty in the C API.
type Data struct {
	dtype DType
	dims  []uint64
	buf   []byte // nil when empty
}

// NewData allocates a zero-initialized buffer of the given type and
// dimensions.
func NewData(dtype DType, dims ...uint64) *Data {
	n := elementCount(dims)
	return &Data{dtype: dtype, dims: cloneDims(dims), buf: make([]byte, n*uint64(dtype.Size()))}
}

// NewEmpty describes a type and shape without allocating storage. It is the
// analogue of pressio_data_new_empty and is used as an output size/type hint
// for Compress and Decompress.
func NewEmpty(dtype DType, dims ...uint64) *Data {
	return &Data{dtype: dtype, dims: cloneDims(dims)}
}

// NewBytes wraps an existing byte slice as an opaque 1-D byte buffer. The
// slice is adopted, not copied (move semantics, like pressio_data_new_move).
func NewBytes(b []byte) *Data {
	return &Data{dtype: DTypeByte, dims: []uint64{uint64(len(b))}, buf: b}
}

// NewMove adopts an existing byte slice as storage for a tensor of the given
// type and dims. The byte length must match the shape. The slice is not
// copied; the caller must not alias it afterwards.
func NewMove(dtype DType, b []byte, dims ...uint64) (*Data, error) {
	want := elementCount(dims) * uint64(dtype.Size())
	if uint64(len(b)) != want {
		return nil, fmt.Errorf("%w: buffer is %d bytes, shape %v of %s needs %d",
			ErrInvalidDims, len(b), dims, dtype, want)
	}
	return &Data{dtype: dtype, dims: cloneDims(dims), buf: b}, nil
}

// adopt wraps a typed slice as dtype storage without copying; no dims means
// one dimension of len(v). It panics when dims do not describe len(v)
// elements, which only a caller's bug can cause.
func adopt[T any](dtype DType, v []T, dims []uint64) *Data {
	if len(dims) == 0 {
		dims = []uint64{uint64(len(v))}
	}
	d, err := NewMove(dtype, bytesOf(v), dims...)
	if err != nil {
		panic(err)
	}
	return d
}

// FromFloat32s wraps a float32 slice without copying.
func FromFloat32s(v []float32, dims ...uint64) *Data { return adopt(DTypeFloat32, v, dims) }

// FromFloat64s wraps a float64 slice without copying.
func FromFloat64s(v []float64, dims ...uint64) *Data { return adopt(DTypeFloat64, v, dims) }

// FromInt32s wraps an int32 slice without copying.
func FromInt32s(v []int32, dims ...uint64) *Data { return adopt(DTypeInt32, v, dims) }

// FromInt64s wraps an int64 slice without copying.
func FromInt64s(v []int64, dims ...uint64) *Data { return adopt(DTypeInt64, v, dims) }

// DType returns the element type.
func (d *Data) DType() DType { return d.dtype }

// Dims returns the dimensions in C order. The returned slice must not be
// modified.
func (d *Data) Dims() []uint64 { return d.dims }

// NumDims returns the rank of the tensor.
func (d *Data) NumDims() int { return len(d.dims) }

// Len returns the number of elements.
func (d *Data) Len() uint64 { return elementCount(d.dims) }

// ByteLen returns the size of the payload in bytes (0 when empty).
func (d *Data) ByteLen() uint64 { return uint64(len(d.buf)) }

// HasData reports whether the buffer owns storage (false for hints created
// with NewEmpty).
func (d *Data) HasData() bool { return d.buf != nil }

// Bytes exposes the raw storage. The slice aliases the buffer; it is nil for
// empty Data.
func (d *Data) Bytes() []byte { return d.buf }

// Become replaces the receiver's contents with those of src (shallow
// adoption: storage is shared). It is used to fill caller-provided output
// buffers.
func (d *Data) Become(src *Data) {
	d.dtype = src.dtype
	d.dims = cloneDims(src.dims)
	d.buf = src.buf
}

// Reshape changes the dimensions without touching the payload. The new shape
// must describe the same number of bytes.
func (d *Data) Reshape(dims ...uint64) error {
	if elementCount(dims)*uint64(d.dtype.Size()) != uint64(len(d.buf)) {
		return fmt.Errorf("%w: cannot reshape %d bytes of %s to %v",
			ErrInvalidDims, len(d.buf), d.dtype, dims)
	}
	d.dims = cloneDims(dims)
	return nil
}

// Clone returns a deep copy.
func (d *Data) Clone() *Data {
	c := &Data{dtype: d.dtype, dims: cloneDims(d.dims)}
	if d.buf != nil {
		c.buf = make([]byte, len(d.buf))
		copy(c.buf, d.buf)
	}
	return c
}

// Equal reports whether two buffers have identical type, shape and contents.
func (d *Data) Equal(o *Data) bool {
	if d.dtype != o.dtype || len(d.dims) != len(o.dims) {
		return false
	}
	for i := range d.dims {
		if d.dims[i] != o.dims[i] {
			return false
		}
	}
	return string(d.buf) == string(o.buf)
}

// String summarizes the buffer for diagnostics.
func (d *Data) String() string {
	return fmt.Sprintf("Data{%s %v, %d bytes}", d.dtype, d.dims, len(d.buf))
}

// Float32s returns the payload viewed as []float32. It panics if the dtype
// differs. The view aliases the storage.
func (d *Data) Float32s() []float32 { return typedView[float32](d, DTypeFloat32) }

// Float64s returns the payload viewed as []float64.
func (d *Data) Float64s() []float64 { return typedView[float64](d, DTypeFloat64) }

// Int8s returns the payload viewed as []int8.
func (d *Data) Int8s() []int8 { return typedView[int8](d, DTypeInt8) }

// Int16s returns the payload viewed as []int16.
func (d *Data) Int16s() []int16 { return typedView[int16](d, DTypeInt16) }

// Int32s returns the payload viewed as []int32.
func (d *Data) Int32s() []int32 { return typedView[int32](d, DTypeInt32) }

// Int64s returns the payload viewed as []int64.
func (d *Data) Int64s() []int64 { return typedView[int64](d, DTypeInt64) }

// Uint8s returns the payload viewed as []uint8.
func (d *Data) Uint8s() []uint8 { return typedView[uint8](d, DTypeUint8) }

// Uint16s returns the payload viewed as []uint16.
func (d *Data) Uint16s() []uint16 { return typedView[uint16](d, DTypeUint16) }

// Uint32s returns the payload viewed as []uint32.
func (d *Data) Uint32s() []uint32 { return typedView[uint32](d, DTypeUint32) }

// Uint64s returns the payload viewed as []uint64.
func (d *Data) Uint64s() []uint64 { return typedView[uint64](d, DTypeUint64) }

// AsFloat64s converts the payload to a fresh []float64 regardless of the
// stored type. Metrics modules use it to compute on a single numeric type.
func (d *Data) AsFloat64s() []float64 {
	n := int(d.Len())
	out := make([]float64, n)
	switch d.dtype {
	case DTypeFloat32:
		for i, v := range d.Float32s() {
			out[i] = float64(v)
		}
	case DTypeFloat64:
		copy(out, d.Float64s())
	case DTypeInt8:
		for i, v := range d.Int8s() {
			out[i] = float64(v)
		}
	case DTypeInt16:
		for i, v := range d.Int16s() {
			out[i] = float64(v)
		}
	case DTypeInt32:
		for i, v := range d.Int32s() {
			out[i] = float64(v)
		}
	case DTypeInt64:
		for i, v := range d.Int64s() {
			out[i] = float64(v)
		}
	case DTypeUint8, DTypeByte:
		for i, v := range d.buf {
			out[i] = float64(v)
		}
	case DTypeUint16:
		for i, v := range d.Uint16s() {
			out[i] = float64(v)
		}
	case DTypeUint32:
		for i, v := range d.Uint32s() {
			out[i] = float64(v)
		}
	case DTypeUint64:
		for i, v := range d.Uint64s() {
			out[i] = float64(v)
		}
	default:
		panic(fmt.Sprintf("core: AsFloat64s on %s data", d.dtype))
	}
	return out
}

// CastTo returns a new Data with elements converted to the destination
// numeric type (values are converted through float64; integer destinations
// round to nearest).
func (d *Data) CastTo(dst DType) (*Data, error) {
	if !d.dtype.Numeric() && d.dtype != DTypeByte {
		return nil, fmt.Errorf("%w: cannot cast from %s", ErrInvalidDType, d.dtype)
	}
	if !dst.Numeric() {
		return nil, fmt.Errorf("%w: cannot cast to %s", ErrInvalidDType, dst)
	}
	vals := d.AsFloat64s()
	out := NewData(dst, d.dims...)
	switch dst {
	case DTypeFloat32:
		o := out.Float32s()
		for i, v := range vals {
			o[i] = float32(v)
		}
	case DTypeFloat64:
		copy(out.Float64s(), vals)
	case DTypeInt8:
		o := out.Int8s()
		for i, v := range vals {
			o[i] = int8(math.RoundToEven(v))
		}
	case DTypeInt16:
		o := out.Int16s()
		for i, v := range vals {
			o[i] = int16(math.RoundToEven(v))
		}
	case DTypeInt32:
		o := out.Int32s()
		for i, v := range vals {
			o[i] = int32(math.RoundToEven(v))
		}
	case DTypeInt64:
		o := out.Int64s()
		for i, v := range vals {
			o[i] = int64(math.RoundToEven(v))
		}
	case DTypeUint8:
		o := out.Uint8s()
		for i, v := range vals {
			o[i] = uint8(math.RoundToEven(v))
		}
	case DTypeUint16:
		o := out.Uint16s()
		for i, v := range vals {
			o[i] = uint16(math.RoundToEven(v))
		}
	case DTypeUint32:
		o := out.Uint32s()
		for i, v := range vals {
			o[i] = uint32(math.RoundToEven(v))
		}
	case DTypeUint64:
		o := out.Uint64s()
		for i, v := range vals {
			o[i] = uint64(math.RoundToEven(v))
		}
	}
	return out, nil
}

// elementCount multiplies dimensions; an empty dim list or a zero extent
// means zero elements. A product past elemCeiling saturates there instead of
// wrapping, so no backing buffer can match a shape that overflows.
func elementCount(dims []uint64) uint64 {
	if len(dims) == 0 || slices.Contains(dims, 0) {
		return 0
	}
	n, err := CheckedElems(dims, elemCeiling)
	if err != nil {
		return elemCeiling
	}
	return n
}

func cloneDims(dims []uint64) []uint64 {
	out := make([]uint64, len(dims))
	copy(out, dims)
	return out
}

// bytesOf reinterprets a typed slice as bytes without copying. Converting
// from a typed slice to bytes is always alignment-safe.
func bytesOf[T any](v []T) []byte {
	if len(v) == 0 {
		return []byte{}
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)
}

// typedView reinterprets the payload as a typed slice. If the underlying
// buffer is misaligned for T (possible when the bytes came from IO), the
// payload is first migrated into an aligned allocation.
func typedView[T any](d *Data, want DType) []T {
	if d.dtype != want {
		panic(fmt.Sprintf("core: typed view of %s data as %s", d.dtype, want))
	}
	if len(d.buf) == 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if addr := uintptr(unsafe.Pointer(&d.buf[0])); addr%uintptr(size) != 0 {
		// Realign by copying into a typed allocation.
		aligned := make([]T, len(d.buf)/size)
		copy(bytesOf(aligned), d.buf)
		d.buf = bytesOf(aligned)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&d.buf[0])), len(d.buf)/size)
}
