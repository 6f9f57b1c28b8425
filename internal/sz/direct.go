package sz

import (
	"math"

	"pressio/internal/bitstream"
	"pressio/internal/core"
	"pressio/internal/trace"
)

// The direct mode (SZG2) quantises each sample against zero, for particle
// data whose Lorenzo residual spans twice its range. The code k+2^31, for
// k = round(v/2eb), is a bucket (its bits above shift), Huffman-coded from
// the stream's lowest one, and shift raw bits. A sample whose bucket is not
// among the directBuckets, or whose reconstruction misses the bound, escapes
// verbatim (code 0) as in SZG1.
const (
	directRadius  = 1 << 31
	directBuckets = 4 * spanBuckets
	// The shift keeps the sample's codes within spanBuckets buckets, whose
	// Huffman codes fit the decoder's lookup table.
	spanBuckets = 512
	// The modes are tried on sampleRuns runs of contiguous samples spread
	// over the field, sampleSize samples in all (all of a smaller field).
	sampleRuns, sampleSize = 16, 1024
)

// chooseDirect estimates each mode's bits on a fixed subset of vals (Lorenzo
// predicting from the input, within the bound of the reconstruction), and
// takes the direct mode only under four fifths of Lorenzo's.
func chooseDirect[T core.Float](vals []T, f field[T]) (shift uint, low uint32, ok bool) {
	n, m := len(vals), 0
	run := (min(n, sampleSize) + sampleRuns - 1) / sampleRuns
	var lz, dz [sampleSize]uint32
	qd := quantizer[T]{eb: f.q.eb, twoEb: f.q.twoEb, radius: directRadius}
	g, slice := f.g, f.g.nx*f.g.ny*f.g.nz
	for j := range sampleRuns {
		for i := j * n / sampleRuns; i < min(n, j*n/sampleRuns+run); i++ {
			o, at := i/slice, i%slice
			lz[m], _ = f.q.encode(lorenzo(vals[o*slice:], at/(g.ny*g.nz), at/g.nz%g.ny, at%g.nz, g.ny, g.nz), vals[i])
			dz[m], _ = qd.encode(0, vals[i])
			m++
		}
	}
	width := float64(8 * core.FloatDType[T]().Size())
	lorenzoBits, _, _ := sampleBits(lz[:m], n, width)
	directBits, shift, lo := sampleBits(dz[:m], n, width)
	// The sample's buckets sit in the middle of the alphabet. (A sample of
	// escapes alone leaves lo at MaxUint32, and every code would escape.)
	return shift, lo>>shift - min(lo>>shift, (directBuckets-spanBuckets)/2), 5*directBits < 4*lorenzoBits
}

// sampleBits estimates the bits n codes cost from a sample of them. Codes
// from lo, the least but 0, group into spanBuckets buckets of 2^shift as the
// direct mode writes them: a sample too small to price each code of a wide
// range still prices its buckets. A code costs its bucket's share of the
// order-0 entropy plus shift raw bits, an escape (0) width bits, and the
// table 16 bits a bucket.
func sampleBits(codes []uint32, n int, width float64) (bits float64, shift uint, lo uint32) {
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, c := range codes {
		if c != 0 {
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	for lo <= hi && hi>>shift-lo>>shift >= spanBuckets {
		shift++
	}
	var count [spanBuckets + 1]int32 // count[0] is the escapes'
	for _, c := range codes {
		if c != 0 {
			c = c>>shift - lo>>shift + 1
		}
		count[c]++
	}
	m, table := float64(len(codes)), 0.0
	for _, k := range count {
		if k > 0 {
			bits += float64(k) * math.Log2(m/float64(k))
			table += 16
		}
	}
	bits += float64(count[0])*width + (m-float64(count[0]))*float64(shift)
	return bits*float64(n)/m + table, shift, lo
}

// compressDirect writes the SZG2 stream: the buckets, Huffman-coded one past
// their offset from low, then the raw low bits of every code that does not
// escape (code 0, as a bucket past the alphabet also does).
func compressDirect[T core.Float](vals []T, f field[T], shift uint, low uint32, spPredict *trace.Span) ([]byte, error) {
	codes := core.GetScratch[uint32](len(vals))
	defer core.PutScratch(codes)
	loBuf := core.GetScratch[byte]((len(vals)*int(shift)+7)/8 + 8)
	defer core.PutScratch(loBuf)
	w := bitstream.NewWriterOn(loBuf)
	q := quantizer[T]{eb: f.q.eb, twoEb: f.q.twoEb, radius: directRadius}
	for i, v := range vals {
		c, _ := q.encode(0, v)
		codes[i] = 0
		if b := c>>shift - low; c != 0 && b < directBuckets {
			codes[i] = b + 1
			w.WriteBits(uint64(c), shift)
		}
	}
	spPredict.End()
	return encode(vals, f, directMagic, codes, directBuckets+1, uint64(low)<<5|uint64(shift), w.Take())
}

// decompressDirect fills the SZG2 samples the escapes left (code 0): each
// is its bucket, one past its offset from low, and shift raw bits of lo.
func decompressDirect[T core.Float](recon []T, codes []uint32, lo []byte, shift uint, low uint32, eb float64) {
	q, r := quantizer[T]{twoEb: 2 * eb, radius: directRadius}, bitstream.NewReader(lo)
	for i, c := range codes {
		if c != 0 {
			recon[i] = q.decode((low+c-1)<<shift|uint32(r.ReadBits(shift)), 0, 0)
		}
	}
}
