// Package core implements the generic compression interface at the heart of
// this LibPressio reproduction: a uniform, introspectable, low-overhead API
// in front of many lossless and error-bounded lossy compressors, metrics
// modules, and IO plugins.
//
// The package mirrors the six major components of the paper's Figure 1:
//
//   - registry functions (RegisterCompressor, NewCompressor, ...) play the
//     role of the "pressio" component: creating references to, enumerating,
//     and handling errors from plugins,
//   - Data is the "pressio_data" buffer abstraction,
//   - Compressor is the "pressio_compressor" component,
//   - Options is the "pressio_options" introspectable configuration store,
//   - IOPlugin is the "pressio_io" component, and
//   - Metric is the "pressio_metrics" component.
package core

import (
	"fmt"
	"math"
	"strings"
)

// DType identifies the element type of a Data buffer. It corresponds to
// pressio_dtype in the original library: compressors that are datatype-aware
// use it to interpret buffers, while byte-oriented lossless compressors may
// ignore it.
type DType int

// The supported element types. DTypeUnset is the zero value and marks a
// buffer whose type is not yet known (for example a decompression output
// hint that only carries dimensions).
const (
	DTypeUnset DType = iota
	DTypeInt8
	DTypeInt16
	DTypeInt32
	DTypeInt64
	DTypeUint8
	DTypeUint16
	DTypeUint32
	DTypeUint64
	DTypeFloat32
	DTypeFloat64
	DTypeByte // opaque bytes, e.g. compressed streams
)

var dtypeNames = map[DType]string{
	DTypeUnset:   "unset",
	DTypeInt8:    "int8",
	DTypeInt16:   "int16",
	DTypeInt32:   "int32",
	DTypeInt64:   "int64",
	DTypeUint8:   "uint8",
	DTypeUint16:  "uint16",
	DTypeUint32:  "uint32",
	DTypeUint64:  "uint64",
	DTypeFloat32: "float32",
	DTypeFloat64: "float64",
	DTypeByte:    "byte",
}

// Size returns the size in bytes of one element of the type. DTypeUnset has
// size 0.
func (d DType) Size() int {
	switch d {
	case DTypeInt8, DTypeUint8, DTypeByte:
		return 1
	case DTypeInt16, DTypeUint16:
		return 2
	case DTypeInt32, DTypeUint32, DTypeFloat32:
		return 4
	case DTypeInt64, DTypeUint64, DTypeFloat64:
		return 8
	default:
		return 0
	}
}

// String returns the canonical lower-case name of the type.
func (d DType) String() string {
	if s, ok := dtypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Float reports whether the type is a floating point type.
func (d DType) Float() bool { return d == DTypeFloat32 || d == DTypeFloat64 }

// Signed reports whether the type is a signed integer type.
//
//pressio:api pressio_dtype_is_signed
func (d DType) Signed() bool {
	switch d {
	case DTypeInt8, DTypeInt16, DTypeInt32, DTypeInt64:
		return true
	}
	return false
}

// Numeric reports whether the type supports arithmetic (everything except
// unset and opaque bytes).
func (d DType) Numeric() bool { return d != DTypeUnset && d != DTypeByte }

// ParseDType converts a type name such as "float32" to a DType. It accepts
// the canonical names plus a few common aliases ("float", "double", "f32").
func ParseDType(s string) (DType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int8", "i8":
		return DTypeInt8, nil
	case "int16", "i16":
		return DTypeInt16, nil
	case "int32", "i32", "int":
		return DTypeInt32, nil
	case "int64", "i64", "long":
		return DTypeInt64, nil
	case "uint8", "u8":
		return DTypeUint8, nil
	case "uint16", "u16":
		return DTypeUint16, nil
	case "uint32", "u32", "uint":
		return DTypeUint32, nil
	case "uint64", "u64":
		return DTypeUint64, nil
	case "float32", "float", "f32", "single":
		return DTypeFloat32, nil
	case "float64", "double", "f64":
		return DTypeFloat64, nil
	case "byte", "bytes", "raw":
		return DTypeByte, nil
	case "unset", "":
		return DTypeUnset, nil
	default:
		return DTypeUnset, fmt.Errorf("%w: unknown dtype %q", ErrInvalidDType, s)
	}
}

// DTypes returns all concrete (non-unset) element types, useful for
// enumeration in tests and tools.
//
//pressio:api the enumeration behind LibPressio's pressio_dtype values
func DTypes() []DType {
	return []DType{
		DTypeInt8, DTypeInt16, DTypeInt32, DTypeInt64,
		DTypeUint8, DTypeUint16, DTypeUint32, DTypeUint64,
		DTypeFloat32, DTypeFloat64, DTypeByte,
	}
}

// clampToDType reports whether v (a float64) can be represented exactly in
// the destination type range; used by option casting.
func fitsInt(v float64, bits int, signed bool) bool {
	if v != math.Trunc(v) {
		return false
	}
	if signed {
		min := -math.Pow(2, float64(bits-1))
		max := math.Pow(2, float64(bits-1)) - 1
		return v >= min && v <= max
	}
	return v >= 0 && v <= math.Pow(2, float64(bits))-1
}
