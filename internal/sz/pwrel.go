package sz

import (
	"encoding/binary"
	"fmt"
	"math"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// pwMagic tags the pointwise-relative wrapper stream.
const pwMagic = "SZPW"

// Per-point classification codes for PW_REL streams.
const (
	pwNegative = iota
	pwPositive
	pwZero
	pwException // non-finite, stored verbatim
)

// CompressSlicePW compresses under a pointwise relative bound: for every
// finite nonzero value, |dec - v| <= rel * |v|. Following SZ's PW_REL
// design, the logarithms of the magnitudes are compressed under an
// absolute bound of log1p(rel); signs, exact zeros, and non-finite values
// travel in a side channel.
func CompressSlicePW[T core.Float](vals []T, dims []uint64, rel float64, p Params) ([]byte, error) {
	if rel <= 0 || rel >= 1 || math.IsNaN(rel) {
		return nil, fmt.Errorf("sz: pointwise relative bound %v must be in (0,1)", rel)
	}
	n, err := core.CheckedElems(dims, maxElems)
	if err != nil {
		return nil, err
	}
	if n != uint64(len(vals)) {
		return nil, fmt.Errorf("sz: %w: dims %v vs %d elements", core.ErrInvalidDims, dims, len(vals))
	}
	logs := make([]T, len(vals))
	codes := make([]byte, len(vals))
	var exceptions []T
	for i, v := range vals {
		f := float64(v)
		switch {
		case math.IsNaN(f) || math.IsInf(f, 0):
			codes[i] = pwException
			exceptions = append(exceptions, v)
			logs[i] = 0
		case f == 0:
			codes[i] = pwZero
			logs[i] = 0
		case f > 0:
			codes[i] = pwPositive
			logs[i] = T(math.Log(f))
		default:
			codes[i] = pwNegative
			logs[i] = T(math.Log(-f))
		}
	}
	inner := p
	inner.Mode = core.BoundAbs
	inner.Bound = math.Log1p(rel)
	inner.PointwiseRel = 0
	if inner, err = inner.normalized(); err != nil {
		return nil, err
	}
	logStream, err := CompressSlice(logs, dims, inner)
	if err != nil {
		return nil, err
	}
	// 2-bit pack the codes and DEFLATE them (they are highly repetitive).
	packed := make([]byte, (len(codes)+3)/4)
	for i, c := range codes {
		packed[i/4] |= c << ((i % 4) * 2)
	}
	packedCodes, err := lossless.Deflate(packed, inner.LosslessLevel)
	if err != nil {
		return nil, err
	}
	excBytes := floatBytes(exceptions)

	var out []byte
	out = append(out, pwMagic...)
	out = binary.AppendUvarint(out, math.Float64bits(rel))
	out = binary.AppendUvarint(out, uint64(len(vals)))
	out = binary.AppendUvarint(out, uint64(len(packedCodes)))
	out = binary.AppendUvarint(out, uint64(len(exceptions)))
	out = append(out, packedCodes...)
	out = append(out, excBytes...)
	out = append(out, logStream...)
	return out, nil
}

// IsPWStream reports whether the stream was produced by CompressSlicePW.
func IsPWStream(stream []byte) bool {
	return len(stream) >= 4 && string(stream[:4]) == pwMagic
}

// DecompressSlicePW decodes a stream produced by CompressSlicePW.
func DecompressSlicePW[T core.Float](stream []byte) ([]T, []uint64, error) {
	if !IsPWStream(stream) {
		return nil, nil, ErrCorrupt
	}
	pos := 4
	relBits, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	if rel := math.Float64frombits(relBits); rel <= 0 || rel >= 1 {
		return nil, nil, ErrCorrupt
	}
	n64, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || n64 > maxElems {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	codesLen, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	nExc, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || nExc > n64 {
		return nil, nil, ErrCorrupt
	}
	pos += sz
	if codesLen > uint64(len(stream)-pos) {
		return nil, nil, ErrCorrupt
	}
	packed, err := lossless.Inflate(stream[pos:pos+int(codesLen)], (n64+3)/4)
	if err != nil {
		return nil, nil, err
	}
	pos += int(codesLen)
	if uint64(len(packed)) < (n64+3)/4 {
		return nil, nil, ErrCorrupt
	}
	exceptions, err := floatsFrom[T](stream[pos:], nExc)
	if err != nil {
		return nil, nil, err
	}
	pos += len(exceptions) * core.FloatDType[T]().Size()

	logs, dims, err := DecompressSlice[T](stream[pos:])
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(logs)) != n64 {
		return nil, nil, ErrCorrupt
	}
	out := make([]T, n64)
	ei := 0
	for i := range out {
		code := (packed[i/4] >> ((i % 4) * 2)) & 3
		switch code {
		case pwZero:
			out[i] = 0
		case pwPositive:
			out[i] = T(math.Exp(float64(logs[i])))
		case pwNegative:
			out[i] = T(-math.Exp(float64(logs[i])))
		case pwException:
			if ei >= len(exceptions) {
				return nil, nil, ErrCorrupt
			}
			out[i] = exceptions[ei]
			ei++
		}
	}
	if ei != len(exceptions) {
		return nil, nil, ErrCorrupt
	}
	return out, dims, nil
}
