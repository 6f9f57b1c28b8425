// Package zfp implements a transform-based error-bounded lossy compressor
// in the style of zfp (Lindstrom, TVCG'14): data is partitioned into 4^d
// blocks; each block is aligned to a common exponent, converted to fixed
// point, run through a separable integer lifting transform, reordered by
// total sequency, converted to negabinary, and coded one bit plane at a
// time with group testing. Fixed-rate, fixed-precision and fixed-accuracy
// modes are supported.
//
// Like the original, the transform works natively in Fortran dimension
// order (fastest dimension first); the plugin translates from the
// framework's C ordering. Partial blocks are padded, which is why passing a
// dimension smaller than the block size wastes bits — the inefficiency the
// paper quantifies in §V.
package zfp

import (
	"math/bits"

	"pressio/internal/bitstream"
)

// Every stage works on fixed 64-entry arrays, the largest block (4^3); a 4^d
// block uses the first 4^d entries. The fixed size lets the compiler drop the
// bounds checks of constant and masked (&63) indices.

// nbmask is the negabinary conversion mask (...101010).
const nbmask = 0xaaaaaaaaaaaaaaaa

// fwdLift applies the forward integer lifting transform to four elements at
// stride s, exactly as in the zfp reference implementation. The transform
// is only approximately invertible (the inverse loses at most one integer
// ulp), which the fixed-point guard bits absorb.
func fwdLift(p *[64]int64, off, s int) {
	x, y, z, w := p[off&63], p[(off+s)&63], p[(off+2*s)&63], p[(off+3*s)&63]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[off&63], p[(off+s)&63], p[(off+2*s)&63], p[(off+3*s)&63] = x, y, z, w
}

// invLift applies the inverse lifting transform.
func invLift(p *[64]int64, off, s int) {
	x, y, z, w := p[off&63], p[(off+s)&63], p[(off+2*s)&63], p[(off+3*s)&63]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off&63], p[(off+s)&63], p[(off+2*s)&63], p[(off+3*s)&63] = x, y, z, w
}

// fwdXform applies the separable transform to a 4^d block (d = 1..3),
// lifting every line along x (stride 1), then y (stride 4), then z (16).
func fwdXform(p *[64]int64, d int) {
	size := 1 << (2 * d)
	for s := 1; s < size; s *= 4 {
		for base := 0; base < size; base += 4 * s {
			for off := base; off < base+s; off++ {
				fwdLift(p, off, s)
			}
		}
	}
}

// invXform applies the inverse separable transform (z, then y, then x).
func invXform(p *[64]int64, d int) {
	size := 1 << (2 * d)
	for s := size / 4; s >= 1; s /= 4 {
		for base := 0; base < size; base += 4 * s {
			for off := base; off < base+s; off++ {
				invLift(p, off, s)
			}
		}
	}
}

// perms holds the sequency-order permutations: coefficients sorted by total
// degree i+j+k so low-frequency (large) coefficients come first in the
// embedded coding.
var perms = [4][64]uint8{1: makePerm(1), 2: makePerm(2), 3: makePerm(3)}

func makePerm(d int) (idx [64]uint8) {
	size := 1 << (2 * d)
	for i := range idx {
		idx[i] = uint8(i)
	}
	degree := func(i uint8) uint8 {
		x := i & 3
		y := (i >> 2) & 3
		z := (i >> 4) & 3
		return x + y + z
	}
	// Insertion sort by (degree, index): stable, tiny input.
	for i := 1; i < size; i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if degree(a) > degree(b) || (degree(a) == degree(b) && a > b) {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
	return idx
}

// int64 <-> negabinary.
func int2nb(x int64) uint64 { return (uint64(x) + nbmask) ^ nbmask }
func nb2int(u uint64) int64 { return int64((u ^ nbmask) - nbmask) }

// transpose transposes in place the 64x64 bit matrix whose row r is a[r]:
// bit c of a[r] and bit r of a[c] change places. It is the classic recursive
// block swap, six rounds of 32 masked word swaps. For n == 32 the first round
// is skipped and only a[:32] is touched, which transposes the two 32x32
// matrices lying side by side in the low and high halves of those 32 words.
func transpose(a *[64]uint64, n uint) {
	m := ^uint64(0)
	for j := uint(32); j != 0; j >>= 1 {
		m ^= m << j // the columns whose index has bit j clear
		if j >= n {
			continue
		}
		for k := uint(0); k < n; k = (k + j + 1) &^ j {
			t := (a[k&63]>>j ^ a[(k+j)&63]) & m
			a[k&63] ^= t << j
			a[(k+j)&63] ^= t
		}
	}
}

// interleave4 packs the four coefficients of a 4-value block into words of
// bit planes in stream order: plane k is the nibble at bit 4(intprec-1-k) of
// the words, LSB-first, and bit i of the nibble is bit k of data[i]. Each 16
// bits of coefficient i are spread to bits 4b+3-i of a word, and the words
// reversed, which puts the planes MSB first and coefficient i at bit i.
func interleave4(pw *[4]uint64, data *[64]uint64, intprec uint) {
	for c := uint(0); c < intprec/16; c++ {
		z := uint64(0)
		for i := range 4 {
			x := data[i] >> (16 * c) & (1<<16 - 1)
			x = (x | x<<24) & 0x000000ff000000ff
			x = (x | x<<12) & 0x000f000f000f000f
			x = (x | x<<6) & 0x0303030303030303
			z |= (x | x<<3) & 0x1111111111111111 << (3 - i)
		}
		pw[(intprec/16-1-c)&3] = bits.Reverse64(z)
	}
}

// deinterleave4 is the inverse of interleave4, into a cleared data[:4].
func deinterleave4(data *[64]uint64, pw *[4]uint64, intprec uint) {
	for c := uint(0); c < intprec/16; c++ {
		z := bits.Reverse64(pw[(intprec/16-1-c)&3])
		for i := range 4 {
			x := z >> (3 - i) & 0x1111111111111111
			x = (x | x>>3) & 0x0303030303030303
			x = (x | x>>6) & 0x000f000f000f000f
			x = (x | x>>12) & 0x000000ff000000ff
			data[i] |= (x | x>>24) & (1<<16 - 1) << (16 * c)
		}
	}
}

// encodeInts performs the embedded bit-plane coding of the zfp reference
// (encode_ints) over the first size entries of data, each below 2^intprec.
// It emits the same bits as the reference's bit-serial loops, which live on
// in codec_test.go as the oracle, at a cost per block and per run instead of
// per bit:
//
//   - A 16- or 64-value block gets all its bit planes at once from one
//     bit-matrix transpose: afterwards data[k] is plane k, bit i of it being
//     bit k of coefficient i. 32-bit coefficients are first packed two to a
//     word (i with i+32) so a pair of 32x32 transposes does it.
//   - A 4-value block is interleaved once into plane words in stream order
//     (interleave4: two words at 32 bits, four at 64), a plane being one
//     nibble of them. Once all four coefficients are significant every plane
//     left is four verbatim bits, so the rest of the block goes out straight
//     from the words, at most 64 bits to a WriteBits.
//   - Per plane from the MSB, the first n bits (coefficients already known
//     significant) go out verbatim; then each newly significant coefficient
//     costs one WriteBits: the group-test 1, the tz zeros of the unary run
//     before it (bits.TrailingZeros64) and its own 1, which is implied for
//     the last coefficient. Every emission is clamped to the remaining
//     budget, so all three modes share this one loop.
//
// data is clobbered. It returns the number of bits written, never exceeding
// maxbits.
func encodeInts(w *bitstream.Writer, data *[64]uint64, size, intprec, maxprec uint, maxbits uint64) uint64 {
	var pw [4]uint64
	if size == 4 {
		interleave4(&pw, data, intprec)
	} else {
		clear(data[size:]) // matrix rows past the block, dirty from the last one
		if intprec == 32 {
			for i := 0; i < 32; i++ {
				data[i] |= data[i+32] << 32
			}
		}
		transpose(data, intprec)
	}
	kmin := uint(0)
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	left := maxbits
	n := uint(0)
	for k := intprec; left > 0 && k > kmin; {
		if size == 4 && n == 4 { // planes k-1 down to kmin, verbatim, within the words
			run := min(4*uint64(k-kmin), left, uint64(64*len(pw)))
			left -= run
			for o := 4 * uint64(intprec-k); run > 0; {
				c := min(run, 64-o&63)
				w.WriteBits(pw[o>>6&3]>>(o&63), uint(c))
				o += c
				run -= c
			}
			break
		}
		k--
		x := data[k&63]
		if size == 4 {
			p := intprec - 1 - k
			x = pw[p>>4&3] >> (4 * (p & 15)) & 15
		}
		m := min(uint64(n), left)
		left -= m
		w.WriteBits(x, uint(m))
		x >>= m
		for n < size && left > 0 {
			if x == 0 {
				w.WriteBit(0)
				left--
				break
			}
			tz := uint(bits.TrailingZeros64(x))
			run := uint64(tz + 2)
			if n+tz == size-1 {
				run--
			}
			run = min(run, left)
			w.WriteBits(1|1<<(tz+1), uint(run))
			left -= run
			x >>= tz + 1
			n += tz + 1
		}
	}
	return maxbits - left
}

// sparseBits is the plane payload, in bits per coefficient, up to which a
// decoded block is cheaper to rebuild one set bit at a time than by the
// fixed-cost transpose (the nearly empty blocks of a sparse field).
const sparseBits = 4

// decodeInts mirrors encodeInts into the first size entries of data: a run is
// one ReadRun. A 4-value block ORs each plane's nibble into the plane words
// of interleave4, reads the verbatim rest of the block into them at most 64
// bits at a time, and de-interleaves them once at the end. A 16- or 64-value
// block collects its plane words as read (in planes, scratch whose contents
// do not matter) and turns them into coefficients at the end, by the
// transpose, or bit by set bit when the block turned out nearly empty.
func decodeInts(r *bitstream.Reader, data, planes *[64]uint64, size, intprec, maxprec uint, maxbits uint64) uint64 {
	clear(data[:size])
	kmin := uint(0)
	if intprec > maxprec {
		kmin = intprec - maxprec
	}
	var pw [4]uint64
	left := maxbits
	n := uint(0)
	k := intprec
	for left > 0 && k > kmin {
		if size == 4 && n == 4 { // as in encodeInts
			run := min(4*uint64(k-kmin), left, uint64(64*len(pw)))
			left -= run
			for o := 4 * uint64(intprec-k); run > 0; {
				c := min(run, 64-o&63)
				pw[o>>6&3] |= r.ReadBits(uint(c)) << (o & 63)
				o += c
				run -= c
			}
			break
		}
		k--
		m := min(uint64(n), left)
		left -= m
		x := r.ReadBits(uint(m))
		for n < size && left > 0 {
			left--
			if r.ReadBit() == 0 {
				break
			}
			limit := min(uint64(size-1-n), left)
			zeros := uint64(r.ReadRun(uint(limit)) & 63) // at most limit, itself below 64
			left -= zeros
			if zeros < limit {
				left-- // the run's terminating one
			}
			n += uint(zeros)
			x |= 1 << n
			n++
		}
		if size == 4 {
			p := intprec - 1 - k
			pw[p>>4&3] |= x << (4 * (p & 15))
			continue
		}
		planes[k&63] = x
	}
	switch {
	case size == 4:
		deinterleave4(data, &pw, intprec)
	case maxbits-left <= sparseBits*uint64(size):
		for ; k < intprec; k++ {
			x := planes[k&63]
			for c := bits.OnesCount64(x); c > 0; c-- {
				data[bits.TrailingZeros64(x)&63] |= 1 << k
				x &= x - 1
			}
		}
	default:
		clear(planes[:k]) // the planes not coded
		transpose(planes, intprec)
		if intprec == 32 {
			for i := 0; i < 32; i++ {
				data[i], data[i+32] = planes[i]&(1<<32-1), planes[i]>>32
			}
		} else {
			*data = *planes
		}
	}
	return maxbits - left
}
