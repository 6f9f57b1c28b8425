// Package lossless provides the lossless codecs of the plugin library:
// DEFLATE-family wrappers over the standard library plus from-scratch
// run-length, byte-shuffle (BLOSC-style) and delta codecs. The lossy
// compressors also use Deflate as their final entropy/backend stage.
package lossless

import (
	"bytes"
	"cmp"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"pressio/internal/core"
)

// ErrCorrupt reports a malformed lossless stream.
var ErrCorrupt = fmt.Errorf("lossless: %w", core.ErrCorrupt)

// Deflate compresses b at the given flate level (1..9; 0 selects the
// default).
func Deflate(b []byte, level int) ([]byte, error) {
	return AppendDeflate(nil, level, b)
}

// deflater is a pooled DEFLATE writer, about 1 MB of tables that NewWriter
// allocates and zeroes, with the buffer it writes into. Reset makes the
// writer equivalent to a new one.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

// deflaters pools one deflater per level, -2 (Huffman only) to 9.
var deflaters [12]core.Pool[deflater]

// AppendDeflate appends to dst the DEFLATE form of parts, taken as one
// input: the bytes are those Deflate gives for their concatenation, without
// building it. A caller that can bound the output sizes dst's capacity.
func AppendDeflate(dst []byte, level int, parts ...[]byte) ([]byte, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		_, err := flate.NewWriter(nil, level)
		return nil, err
	}
	pool := &deflaters[level-flate.HuffmanOnly]
	d := pool.Get()
	if d == nil {
		d = &deflater{}
	}
	defer func() {
		d.buf = bytes.Buffer{} // the caller owns the output; the pool must not hold it
		pool.Put(d)
	}()
	if d.buf = *bytes.NewBuffer(dst); d.w == nil {
		d.w, _ = flate.NewWriter(&d.buf, level)
	} else {
		d.w.Reset(&d.buf)
	}
	for _, b := range parts {
		if _, err := d.w.Write(b); err != nil {
			return nil, err
		}
	}
	if err := d.w.Close(); err != nil {
		return nil, err
	}
	return d.buf.Bytes(), nil
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

// MaxInflated bounds what a DEFLATE stream of n bytes inflates to (a
// 258-byte match costs at least two bits), so a decoder that presizes by
// min(header size, MaxInflated(len(stream))) cannot be made to over-allocate.
func MaxInflated(n int) uint64 { return 1032*uint64(n) + 1024 }

// inflater is a pooled DEFLATE reader with the bytes.Reader it reads from.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

var inflaters core.Pool[inflater]

// Inflate reverses Deflate, refusing with ErrCorrupt a stream that inflates
// to more than limit bytes. Decoders pass the size their header implies, so
// a small hostile stream costs at most limit+1 bytes of output, not the
// ~1000x expansion DEFLATE allows. The output is presized to a limit short
// of Unbounded (or to what b can inflate to), so a decoder that can only
// bound the size from above uses AppendInflate.
func Inflate(b []byte, limit uint64) ([]byte, error) {
	var dst []byte
	if limit != Unbounded {
		dst = make([]byte, 0, min(limit, MaxInflated(len(b)))+1)
	}
	return AppendInflate(dst, b, limit)
}

// AppendInflate appends to dst what b inflates to, refusing with ErrCorrupt
// a stream that inflates to more than limit bytes, as Inflate does. Given
// the capacity for limit+1 bytes, dst never grows.
func AppendInflate(dst, b []byte, limit uint64) ([]byte, error) {
	f := inflaters.Get()
	if f == nil {
		f = &inflater{}
	}
	defer inflaters.Put(f)
	if f.src.Reset(b); f.r == nil {
		f.r = flate.NewReader(&f.src)
	} else if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer f.src.Reset(nil)
	return readLimited(dst, f.r, limit)
}

// readLimited appends r's bytes to dst up to r's end, refusing with
// ErrCorrupt a stream that yields more than limit bytes; it reads at most
// limit+1 of them, and grows dst only when its capacity is full.
func readLimited(dst []byte, r io.ReadCloser, limit uint64) ([]byte, error) {
	limit = min(limit, math.MaxInt64-1)
	for start := len(dst); ; {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(len(dst)-start, 512))
		}
		room := min(uint64(cap(dst)-len(dst)), limit+1-uint64(len(dst)-start))
		n, err := r.Read(dst[len(dst) : len(dst)+int(room)])
		switch dst = dst[:len(dst)+n]; {
		case uint64(len(dst)-start) > limit:
			return nil, fmt.Errorf("%w: decodes past its %d-byte limit", ErrCorrupt, limit)
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
}

// Gzip compresses b in gzip format.
func Gzip(b []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, cmp.Or(level, gzip.DefaultCompression))
	return writeClose(&buf, w, err, b)
}

// Gunzip reverses Gzip, refusing with ErrCorrupt a stream that inflates to
// more than limit bytes, as Inflate does.
func Gunzip(b []byte, limit uint64) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(b))
	return readClose(r, err, limit)
}

// Zlib compresses b in zlib format.
func Zlib(b []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := zlib.NewWriterLevel(&buf, cmp.Or(level, zlib.DefaultCompression))
	return writeClose(&buf, w, err, b)
}

// Unzlib reverses Zlib, refusing with ErrCorrupt a stream that inflates to
// more than limit bytes, as Inflate does.
func Unzlib(b []byte, limit uint64) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(b))
	return readClose(r, err, limit)
}

// writeClose writes b through w, which opening over buf returned with err,
// and returns what buf then holds.
func writeClose(buf *bytes.Buffer, w io.WriteCloser, err error, b []byte) ([]byte, error) {
	if err == nil {
		_, err = w.Write(b)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readClose reads r, which opening returned with err, as readLimited does.
func readClose(r io.ReadCloser, err error, limit uint64) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer r.Close()
	return readLimited(nil, r, limit)
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

// UnRLE reverses RLE, refusing with ErrCorrupt a declared length past limit
// (or past 2^34) before it allocates the output.
func UnRLE(b []byte, limit uint64) ([]byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > min(limit, 1<<34) {
		return nil, ErrCorrupt
	}
	pos := sz
	out := make([]byte, 0, n)
	for uint64(len(out)) < n {
		run, sz := binary.Uvarint(b[pos:])
		if pos += sz; sz <= 0 || pos >= len(b) || uint64(len(out))+run > n {
			return nil, ErrCorrupt
		}
		for k := uint64(0); k < run; k++ {
			out = append(out, b[pos])
		}
		pos++
	}
	return out, nil
}

// Shuffle performs a BLOSC-style byte transposition: with elemSize k, all
// first bytes of each element come first, then all second bytes, and so on.
// IEEE floats of similar magnitude share exponent bytes, so the shuffled
// stream compresses much better with DEFLATE.
func Shuffle(b []byte, elemSize int) []byte { return shuffle(b, elemSize, false) }

// Unshuffle reverses Shuffle.
func Unshuffle(b []byte, elemSize int) []byte { return shuffle(b, elemSize, true) }

// shuffle moves byte lane of element i to lane*n+i, or back when undo.
func shuffle(b []byte, elemSize int, undo bool) []byte {
	if elemSize <= 1 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	n := len(b) / elemSize
	out := make([]byte, len(b))
	for lane := 0; lane < elemSize; lane++ {
		for i := 0; i < n; i++ {
			from, to := i*elemSize+lane, lane*n+i
			if undo {
				from, to = to, from
			}
			out[to] = b[from]
		}
	}
	return out
}

// BitShuffle performs BLOSC's second filter: within each block of 8
// elements, bit k of every element is gathered together, so slowly varying
// values concentrate their entropy into a few output bytes. elemSize is in
// bytes; inputs whose length is not a multiple of 8*elemSize keep an
// unshuffled tail.
func BitShuffle(b []byte, elemSize int) []byte { return bitShuffle(b, elemSize, false) }

// BitUnshuffle reverses BitShuffle.
func BitUnshuffle(b []byte, elemSize int) []byte { return bitShuffle(b, elemSize, true) }

// bitShuffle transposes, in each block of 8 elements and for each byte
// position, the 8x8 bit matrix whose row e is that byte of element e into
// the 8 bytes at byteIdx*8; undo reads those and writes the elements. The
// transpose is its own inverse, so only the addressing differs.
func bitShuffle(b []byte, elemSize int, undo bool) []byte {
	if elemSize <= 0 || len(b)%elemSize != 0 {
		return append([]byte(nil), b...)
	}
	out := make([]byte, len(b))
	block := 8 * elemSize
	full := (len(b) / block) * block
	for base := 0; base < full; base += block {
		for byteIdx := 0; byteIdx < elemSize; byteIdx++ {
			elem := func(e int) int { return base + e*elemSize + byteIdx }
			plane := func(e int) int { return base + byteIdx*8 + e }
			from, to := elem, plane
			if undo {
				from, to = plane, elem
			}
			var rows [8]byte
			for e := 0; e < 8; e++ {
				rows[e] = b[from(e)]
			}
			for bit := 0; bit < 8; bit++ {
				var packed byte
				for e := 0; e < 8; e++ {
					packed |= ((rows[e] >> bit) & 1) << e
				}
				out[to(bit)] = packed
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

// UnDeltaVarint reverses DeltaVarint, refusing with ErrCorrupt, before it
// allocates the output, a count past 2^32, a count the remaining bytes
// cannot hold (each delta takes at least one varint byte), and an output
// past limit bytes.
func UnDeltaVarint(b []byte, elemSize int, limit uint64) ([]byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<32 || n > uint64(len(b)-sz) || n*uint64(elemSize) > limit {
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
