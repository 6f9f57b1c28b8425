// Package bitstream provides the bit-granular writer and reader shared by
// the entropy coders and the zfp-family block codec. Bits are packed
// LSB-first into little-endian 64-bit words, matching the layout of the zfp
// reference bit stream so block codecs can reason in terms of bit budgets.
package bitstream

import (
	"encoding/binary"
	"math/bits"
)

// Writer accumulates bits into a growable byte buffer.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, LSB-first
	nacc uint   // number of valid bits in acc (< 64)
	n    uint64 // total bits written
}

// NewWriter returns an empty Writer. The initial capacity hint is in bytes.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// WriteBit appends a single bit (the low bit of b).
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (w *Writer) WriteBit(b uint) {
	w.acc |= uint64(b&1) << w.nacc
	w.nacc++
	w.n++
	if w.nacc == 64 {
		w.flushWord()
	}
}

// WriteBits appends the low n bits of v, LSB first. n must be ≤ 64.
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.acc |= v << w.nacc
	free := 64 - w.nacc
	if n < free {
		w.nacc += n
	} else {
		w.flushWord()
		if n > free {
			w.acc = v >> free
			w.nacc = n - free
		}
	}
	w.n += uint64(n)
}

// WriteUnary appends v as a unary run: v zero bits then a one bit.
func (w *Writer) WriteUnary(v uint) {
	for v >= 64 {
		w.WriteBits(0, 64)
		v -= 64
	}
	w.WriteBits(1<<v, v+1)
}

func (w *Writer) flushWord() {
	w.buf = append(w.buf,
		byte(w.acc), byte(w.acc>>8), byte(w.acc>>16), byte(w.acc>>24),
		byte(w.acc>>32), byte(w.acc>>40), byte(w.acc>>48), byte(w.acc>>56))
	w.acc = 0
	w.nacc = 0
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint64 { return w.n }

// Bytes finalizes the stream, flushing any partial word, and returns the
// packed bytes. The Writer may continue to be used; subsequent Bytes calls
// reflect additional writes.
func (w *Writer) Bytes() []byte {
	out := make([]byte, 0, len(w.buf)+8)
	out = append(out, w.buf...)
	if w.nacc > 0 {
		acc := w.acc
		for i := uint(0); i < w.nacc; i += 8 {
			out = append(out, byte(acc))
			acc >>= 8
		}
	}
	return out
}

// Take flushes any partial word and returns the Writer's own buffer, saving
// the copy Bytes makes; the Writer must not be written to afterwards.
func (w *Writer) Take() []byte {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return w.buf
}

// Reader consumes bits from a byte slice produced by Writer.
type Reader struct {
	buf  []byte
	pos  int    // next byte to load
	acc  uint64 // loaded bits, LSB-first
	nacc uint   // valid bits in acc
}

// NewReader wraps b for reading.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// fill ensures at least n (≤ 57) bits are available unless the input is
// exhausted; reads beyond the end return zero bits, which lets fixed-budget
// block codecs pad naturally. The test inlines into every read; the refill
// behind it runs once per seven bytes or so.
func (r *Reader) fill(n uint) {
	if r.nacc < n {
		r.refill()
	}
}

// refill tops the accumulator up to at least 57 bits with one 8-byte load,
// keeping the whole bytes that fit, or byte by byte within 8 bytes of the end.
func (r *Reader) refill() {
	if len(r.buf)-r.pos >= 8 {
		take := (64 - r.nacc) >> 3
		word := binary.LittleEndian.Uint64(r.buf[r.pos:])
		if take < 8 {
			word &= 1<<(8*take) - 1
		}
		r.acc |= word << r.nacc
		r.pos += int(take)
		r.nacc += 8 * take
		return
	}
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBit consumes and returns one bit (0 when past the end).
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (r *Reader) ReadBit() uint {
	r.fill(1)
	b := uint(r.acc & 1)
	r.acc >>= 1
	if r.nacc > 0 {
		r.nacc--
	}
	return b
}

// Peek returns the next n (≤ 57) bits, LSB-first, without consuming them;
// bits past the end read as zero. Table-driven decoders index with it and
// then Skip the length the entry carries.
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (r *Reader) Peek(n uint) uint64 {
	r.fill(n)
	return r.acc & (1<<n - 1)
}

// Skip consumes n (≤ 57) bits. Skipping past the end is not an error, as
// with every read: the caller bounds what it consumes.
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (r *Reader) Skip(n uint) {
	r.fill(n)
	r.acc >>= n
	r.nacc -= min(r.nacc, n)
}

// ReadBits consumes and returns n (≤ 64) bits, LSB-first.
//
//pressio:hotpath measured by the benchmark's bitstream.* per-layer rows
func (r *Reader) ReadBits(n uint) uint64 {
	if n <= 57 {
		v := r.Peek(n)
		r.Skip(n)
		return v
	}
	lo := r.ReadBits(32)
	hi := r.ReadBits(n - 32)
	return lo | hi<<32
}

// ReadRun consumes zero bits up to and including the first one bit, but at
// most limit (≤ 64) bits in all, and returns the number of zeros consumed: a
// result below limit means the terminating one was consumed too. Bits past
// the end read as zero. It is the bounded form of ReadUnary for codecs that
// spend a bit budget (zfp's group-tested runs).
func (r *Reader) ReadRun(limit uint) uint {
	limit = min(limit, 64)
	var zeros uint
	for zeros < limit {
		chunk := min(limit-zeros, 57)
		if tz := uint(bits.TrailingZeros64(r.Peek(chunk))); tz < chunk {
			r.Skip(tz + 1)
			return zeros + tz
		}
		r.Skip(chunk)
		zeros += chunk
	}
	return zeros
}

// ReadUnary consumes a unary run (zeros then a one) and returns the count of
// zeros. Returns maxInt when the stream ends without a one (corrupt input);
// callers bound their loops separately.
func (r *Reader) ReadUnary() uint {
	var count uint
	for {
		r.fill(57)
		if r.nacc == 0 {
			return count // exhausted
		}
		avail := r.nacc
		chunk := r.acc
		if avail < 64 {
			chunk |= ^uint64(0) << avail // sentinel beyond valid bits
		}
		tz := uint(bits.TrailingZeros64(chunk))
		if tz < avail {
			// Found the terminating one within valid bits.
			r.acc >>= tz + 1
			r.nacc -= tz + 1
			return count + tz
		}
		// All valid bits are zero; consume them and continue.
		count += avail
		r.acc = 0
		r.nacc = 0
	}
}
