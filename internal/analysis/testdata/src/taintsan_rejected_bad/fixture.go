// Package taintsan_rejected_bad exercises the guard shapes the taint
// engine must NOT accept: an untrusted cap, a guard invalidated by a later
// reassignment, a guard on another variable than the one allocated, and a
// check whose oversized path rejoins the use. Every allocation is flagged.
package taintsan_rejected_bad

import "errors"

var errCorrupt = errors.New("corrupt stream")

const maxElems = 1 << 20

func parseCount(stream []byte) uint64 {
	return uint64(stream[0]) | uint64(stream[1])<<8 |
		uint64(stream[2])<<16 | uint64(stream[3])<<24
}

// Decompress checks the count against a limit read from the same stream: a
// tainted cap bounds nothing.
func Decompress(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	limit := parseCount(stream[4:])
	if n > limit {
		return nil, errCorrupt
	}
	return make([]byte, n), nil
}

// DecompressImpl guards the count, then overwrites it from the stream
// again: the reassignment invalidates the guard.
func DecompressImpl(stream []byte) ([]byte, error) {
	n := parseCount(stream)
	if n > maxElems {
		return nil, errCorrupt
	}
	n = parseCount(stream[4:])
	return make([]byte, n), nil
}

// DecompressSlice guards one header field and allocates another.
func DecompressSlice(stream []byte) ([]byte, error) {
	rows := parseCount(stream)
	cols := parseCount(stream[4:])
	if rows > maxElems {
		return nil, errCorrupt
	}
	return make([]byte, cols), nil
}

// The three loops below guard the stream-derived step with a comparison
// that mentions 0 or 1 but does not make it strictly positive: a zero
// advance passes each guard and the loop spins. All three steps must be
// flagged by untrustedloop.

//pressio:untrusted rejects a negative advance only
func skipNegative(stream []byte) error {
	pos := 0
	for pos < len(stream) {
		adv := int(int8(stream[pos]))
		if adv < 0 {
			return errCorrupt
		}
		pos += adv
	}
	return nil
}

//pressio:untrusted rejects an advance of exactly one
func skipNotOne(stream []byte) error {
	pos := 0
	for pos < len(stream) {
		adv := int(stream[pos])
		if adv == 1 {
			return errCorrupt
		}
		pos += adv
	}
	return nil
}

//pressio:untrusted advances only when the step is non-negative
func skipNonNegative(stream []byte) {
	pos := 0
	for pos < len(stream) {
		adv := int(int8(stream[pos]))
		if adv >= 0 {
			pos += adv
		}
	}
}

// header is a parsed stream header.
type header struct{ n uint64 }

func parseHdr(stream []byte) header { return header{n: parseCount(stream)} }

// guardFieldReparsed checks a header field, then parses the header again: the
// reassignment of h kills the bound on h.n.
//
//pressio:untrusted
func guardFieldReparsed(stream []byte) ([]byte, error) {
	h := parseHdr(stream)
	if h.n > maxElems {
		return nil, errCorrupt
	}
	h = parseHdr(stream[4:])
	return make([]byte, h.n), nil
}

// guardIgnored compares the count but neither leaves nor clamps: the
// oversized path rejoins the allocation.
//
//pressio:untrusted
func guardIgnored(stream []byte) []byte {
	n := parseCount(stream)
	if n > maxElems {
		_ = n
	}
	return make([]byte, n)
}
