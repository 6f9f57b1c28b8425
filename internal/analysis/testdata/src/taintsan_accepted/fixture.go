// Package taintsan_accepted exercises every sanitizer idiom the taint
// engine accepts — constant cap, min() clamp, option-derived limit,
// len-derived bound, early-return guard, and core's checked shape prelude —
// one per decode entry. The golden file is empty: none of these may report.
package taintsan_accepted

import (
	"errors"

	"pressio/internal/core"
)

var errCorrupt = errors.New("corrupt stream")

const maxElems = 1 << 20

// settings models plugin options resolved before decode; package-level
// configuration counts as trusted.
var settings = struct{ MaxElems uint64 }{1 << 16}

func parseCount(stream []byte) uint64 {
	return uint64(stream[0]) | uint64(stream[1])<<8 |
		uint64(stream[2])<<16 | uint64(stream[3])<<24
}

// Decompress: constant cap via early-return guard.
func Decompress(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	if n > maxElems {
		return nil, errCorrupt
	}
	return make([]byte, n), nil
}

// DecompressImpl: min() clamp pins the count to a constant.
func DecompressImpl(stream []byte) []byte {
	n := min(parseCount(stream), maxElems)
	return make([]byte, n)
}

// DecompressSlice: option-derived limit and len-derived bound, plus a
// positive guard on the loop step.
func DecompressSlice(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	if n > settings.MaxElems {
		return nil, errCorrupt
	}
	out := make([]byte, n)
	skip := parseCount(stream[4:])
	if skip > uint64(len(stream)) {
		return nil, errCorrupt
	}
	tail := make([]byte, skip)
	pos := 0
	for pos < len(out) {
		adv := int(stream[4+pos%4])
		if adv < 1 {
			return nil, errCorrupt
		}
		pos += adv
	}
	return append(out, tail...), nil
}

// decodeShaped: the extents and count core.ReadExtents returns were bounded
// inside it against the constant passed here, so they size an allocation and
// bound a walk with no guard of the caller's own.
//
//pressio:untrusted
func decodeShaped(stream []byte) ([]float64, error) {
	dims, n, _, err := core.ReadExtents(stream, 3, maxElems)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := uint64(0); i < dims[0]; i++ {
		out[i] = 1
	}
	return out, nil
}
