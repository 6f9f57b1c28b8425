// Package taintsan_accepted exercises every sanitizer idiom the taint
// engine accepts — constant cap, min() clamp, option-derived limit,
// len-derived bound, early-return guard, core's checked shape prelude, and
// the guard shapes credited along CFG edges (holds, else branches, clamps,
// every way out of the oversized path, accumulate-and-check). The golden
// file is empty: none of these may report.
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

// The shapes below are credited by the guard's CFG edges: the fact a
// comparison establishes flows along the edge on which it holds, dies at an
// assignment to the key, and survives a join only where every incoming path
// carries it (or the key's root is clean there). Each allocates once.

// header is a parsed stream header; a guard on one of its fields bounds that
// field until the header is reassigned.
type header struct{ n uint64 }

func parseHdr(stream []byte) header { return header{n: parseCount(stream)} }

// holdInBody allocates only on the edge where the count is under the cap.
//
//pressio:untrusted
func holdInBody(stream []byte) []byte {
	n := parseCount(stream)
	if n < maxElems {
		return make([]byte, n)
	}
	return nil
}

// holdInElse allocates in the else branch of a violation check.
//
//pressio:untrusted
func holdInElse(stream []byte) []byte {
	n := parseCount(stream)
	var out []byte
	if n > maxElems {
		out = nil
	} else {
		out = make([]byte, n)
	}
	return out
}

// clampLocal pins the count to the cap instead of failing.
//
//pressio:untrusted
func clampLocal(stream []byte) []byte {
	n := parseCount(stream)
	if n > maxElems {
		n = maxElems
	}
	return make([]byte, n)
}

// clampField pins a header field to the cap.
//
//pressio:untrusted
func clampField(stream []byte) []byte {
	h := parseHdr(stream)
	if h.n > maxElems {
		h.n = maxElems
	}
	return make([]byte, h.n)
}

// guardField rejects an oversized header field before allocating by it.
//
//pressio:untrusted
func guardField(stream []byte) ([]byte, error) {
	h := parseHdr(stream)
	if h.n > maxElems {
		return nil, errCorrupt
	}
	return make([]byte, h.n), nil
}

// guardBreak stops reading records at the first oversized one.
//
//pressio:untrusted
func guardBreak(stream []byte) [][]byte {
	var out [][]byte
	for len(stream) >= 4 {
		n := parseCount(stream)
		if n > maxElems {
			break
		}
		out = append(out, make([]byte, n))
		stream = stream[4:]
	}
	return out
}

// guardContinue skips oversized records.
//
//pressio:untrusted
func guardContinue(stream []byte) [][]byte {
	var out [][]byte
	for i := 0; i+4 <= len(stream); i += 4 {
		n := parseCount(stream[i:])
		if n > maxElems {
			continue
		}
		out = append(out, make([]byte, n))
	}
	return out
}

// guardPanic treats an oversized count as a broken invariant.
//
//pressio:untrusted
func guardPanic(stream []byte) []byte {
	n := parseCount(stream)
	if n > maxElems {
		panic("corrupt stream")
	}
	return make([]byte, n)
}

// guardGoto jumps to a shared failure exit.
//
//pressio:untrusted
func guardGoto(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	if n > maxElems {
		goto corrupt
	}
	return make([]byte, n), nil
corrupt:
	return nil, errCorrupt
}

// accumulate grows a total across a loop and checks it on every step, then
// allocates by it after the loop.
//
//pressio:untrusted
func accumulate(stream []byte) ([]byte, error) {
	var total uint64
	for i := 0; i+4 <= len(stream); i += 4 {
		total += parseCount(stream[i:])
		if total > maxElems {
			return nil, errCorrupt
		}
	}
	return make([]byte, total), nil
}

// countUp starts from a stream-derived value and runs only while it is under
// the cap.
//
//pressio:untrusted
func countUp(stream []byte) [][]byte {
	var out [][]byte
	for n := parseCount(stream); n < maxElems; n++ {
		out = append(out, make([]byte, n))
	}
	return out
}

// lenientAnd: a comparison leaf under && still credits its key (documented
// leniency; a decoder that checks at all is credited).
//
//pressio:untrusted
func lenientAnd(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	if n > maxElems && len(stream) > 4 {
		return nil, errCorrupt
	}
	return make([]byte, n), nil
}
