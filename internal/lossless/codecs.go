// Package lossless provides the lossless codecs of the plugin library:
// DEFLATE-family wrappers over the standard library plus from-scratch
// run-length, byte-shuffle (BLOSC-style) and delta codecs. The lossy
// compressors also use Deflate as their final entropy/backend stage.
package lossless

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pressio/internal/core"
)

// ErrCorrupt reports a malformed lossless stream.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// Deflate compresses b at the given flate level (1..9; 0 selects the
// default).
func Deflate(b []byte, level int) ([]byte, error) {
	return AppendDeflate(nil, level, b)
}

// AppendDeflate appends to dst the DEFLATE form of parts, taken as one
// input: the bytes are those Deflate gives for their concatenation, without
// building it. A caller that can bound the output sizes dst's capacity.
func AppendDeflate(dst []byte, level int, parts ...[]byte) ([]byte, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	buf := bytes.NewBuffer(dst)
	w, err := flate.NewWriter(buf, level)
	if err != nil {
		return nil, err
	}
	for _, b := range parts {
		if _, err := w.Write(b); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unbounded is the Inflate limit for a stream whose header records no size
// (the lossless plugins, bitgroom): only DEFLATE's own ~1000x expansion
// bounds the output.
const Unbounded = math.MaxUint64

// DeclaredLimit is the Inflate limit of a stream that records no size: the
// bytes out's dtype and dims declare, or Unbounded when out declares no
// sized dtype, no dims or a zero extent.
func DeclaredLimit(out *core.Data) uint64 {
	size := uint64(out.DType().Size())
	n, err := core.CheckedElems(out.Dims(), math.MaxUint64/8)
	if size == 0 || err != nil {
		return Unbounded
	}
	return n * size
}

// Inflate reverses Deflate, refusing with ErrCorrupt a stream that inflates
// to more than limit bytes. Decoders pass the size their header implies, so
// a small hostile stream costs at most limit+1 bytes of output, not the
// ~1000x expansion DEFLATE allows.
func Inflate(b []byte, limit uint64) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, int64(min(limit, math.MaxInt64-1))+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if uint64(len(out)) > limit {
		return nil, fmt.Errorf("%w: inflates past the %d bytes its header allows", ErrCorrupt, limit)
	}
	return out, nil
}

// Gzip compresses b in gzip format.
func Gzip(b []byte, level int) ([]byte, error) {
	if level == 0 {
		level = gzip.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Gunzip reverses Gzip.
func Gunzip(b []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// Zlib compresses b in zlib format.
func Zlib(b []byte, level int) ([]byte, error) {
	if level == 0 {
		level = zlib.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unzlib reverses Zlib.
func Unzlib(b []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// RLE run-length encodes b: each run is (uvarint length, byte). Effective
// for sparse or constant regions; a worst-case stream grows by ~12.5%.
func RLE(b []byte) []byte {
	out := make([]byte, 0, len(b)/4+16)
	out = binary.AppendUvarint(out, uint64(len(b)))
	i := 0
	for i < len(b) {
		j := i
		for j < len(b) && b[j] == b[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = append(out, b[i])
		i = j
	}
	return out
}

// UnRLE reverses RLE.
func UnRLE(b []byte) ([]byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<34 {
		return nil, ErrCorrupt
	}
	pos := sz
	out := make([]byte, 0, n)
	for uint64(len(out)) < n {
		run, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return nil, ErrCorrupt
		}
		pos += sz
		if pos >= len(b)+1 && run > 0 {
			return nil, ErrCorrupt
		}
		if pos >= len(b) {
			return nil, ErrCorrupt
		}
		v := b[pos]
		pos++
		if uint64(len(out))+run > n {
			return nil, ErrCorrupt
		}
		for k := uint64(0); k < run; k++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// Shuffle performs a BLOSC-style byte transposition: with elemSize k, all
// first bytes of each element come first, then all second bytes, and so on.
// IEEE floats of similar magnitude share exponent bytes, so the shuffled
// stream compresses much better with DEFLATE.
func Shuffle(b []byte, elemSize int) []byte {
	if elemSize <= 1 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	n := len(b) / elemSize
	out := make([]byte, len(b))
	for lane := 0; lane < elemSize; lane++ {
		dst := out[lane*n : (lane+1)*n]
		for i := 0; i < n; i++ {
			dst[i] = b[i*elemSize+lane]
		}
	}
	return out
}

// Unshuffle reverses Shuffle.
func Unshuffle(b []byte, elemSize int) []byte {
	if elemSize <= 1 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	n := len(b) / elemSize
	out := make([]byte, len(b))
	for lane := 0; lane < elemSize; lane++ {
		src := b[lane*n : (lane+1)*n]
		for i := 0; i < n; i++ {
			out[i*elemSize+lane] = src[i]
		}
	}
	return out
}

// BitShuffle performs BLOSC's second filter: within each block of 8
// elements, bit k of every element is gathered together, so slowly varying
// values concentrate their entropy into a few output bytes. elemSize is in
// bytes; inputs whose length is not a multiple of 8*elemSize keep an
// unshuffled tail.
func BitShuffle(b []byte, elemSize int) []byte {
	if elemSize <= 0 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	out := make([]byte, len(b))
	block := 8 * elemSize
	full := (len(b) / block) * block
	for base := 0; base < full; base += block {
		// 8 elements of elemSize bytes = 8*elemSize bytes = elemSize
		// groups of 8 bytes; transpose each 8x8 bit matrix.
		for byteIdx := 0; byteIdx < elemSize; byteIdx++ {
			var rows [8]byte
			for e := 0; e < 8; e++ {
				rows[e] = b[base+e*elemSize+byteIdx]
			}
			for bit := 0; bit < 8; bit++ {
				var packed byte
				for e := 0; e < 8; e++ {
					packed |= ((rows[e] >> bit) & 1) << e
				}
				out[base+byteIdx*8+bit] = packed
			}
		}
	}
	copy(out[full:], b[full:])
	return out
}

// BitUnshuffle reverses BitShuffle.
func BitUnshuffle(b []byte, elemSize int) []byte {
	if elemSize <= 0 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	out := make([]byte, len(b))
	block := 8 * elemSize
	full := (len(b) / block) * block
	for base := 0; base < full; base += block {
		for byteIdx := 0; byteIdx < elemSize; byteIdx++ {
			var planes [8]byte
			for bit := 0; bit < 8; bit++ {
				planes[bit] = b[base+byteIdx*8+bit]
			}
			for e := 0; e < 8; e++ {
				var v byte
				for bit := 0; bit < 8; bit++ {
					v |= ((planes[bit] >> e) & 1) << bit
				}
				out[base+e*elemSize+byteIdx] = v
			}
		}
	}
	copy(out[full:], b[full:])
	return out
}

// DeltaVarint delta-encodes b interpreted as little-endian integers of
// elemSize bytes (1, 2, 4 or 8), emitting zig-zag uvarints of adjacent
// differences. Slowly varying integer fields collapse to near-zero deltas.
func DeltaVarint(b []byte, elemSize int) ([]byte, error) {
	if len(b)%elemSize != 0 {
		return nil, fmt.Errorf("lossless: %d bytes not a multiple of element size %d", len(b), elemSize)
	}
	n := len(b) / elemSize
	out := make([]byte, 0, len(b)/2+16)
	out = binary.AppendUvarint(out, uint64(n))
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v := readLE(b[i*elemSize:], elemSize)
		delta := int64(v - prev)
		out = binary.AppendVarint(out, delta)
		prev = v
	}
	return out, nil
}

// UnDeltaVarint reverses DeltaVarint.
func UnDeltaVarint(b []byte, elemSize int) ([]byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<32 {
		return nil, ErrCorrupt
	}
	pos := sz
	out := make([]byte, n*uint64(elemSize))
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, sz := binary.Varint(b[pos:])
		if sz <= 0 {
			return nil, ErrCorrupt
		}
		pos += sz
		prev += uint64(delta)
		writeLE(out[i*uint64(elemSize):], prev, elemSize)
	}
	return out, nil
}

func readLE(b []byte, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func writeLE(b []byte, v uint64, size int) {
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
