package fpzip

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pressio/internal/bitstream"
	"pressio/internal/core"
	"pressio/internal/rangecoder"
)

// The FPZ2 encoder, as the last release that wrote FPZ2 had it: each class
// in unary, as k+1 adaptive binary decisions. It is the oracle FPZ3 is
// checked against and the generator of the pinned .fpz2.stream goldens.

func (c *coder) encodeResidual(enc *rangecoder.Encoder, raw *bitstream.Writer, diff int64) {
	z := zigzag(diff)
	k := uint(bits.Len64(z)) // magnitude class: 0 for z==0
	for i := uint(0); i < k; i++ {
		enc.EncodeBit(&c.classProbs[i], 1)
	}
	if k < 65 {
		enc.EncodeBit(&c.classProbs[k], 0)
	}
	if k > 1 {
		// MSB is implied; WriteBits keeps the k-1 low bits.
		raw.WriteBits(z, k-1)
	}
}

// compressFPZ2 is CompressSlice as it was when it wrote FPZ2.
func compressFPZ2[T core.Float](vals []T, dims []uint64, p Params) ([]byte, error) {
	w := width[T]()
	prec := p.Precision
	if prec == 0 {
		prec = w
	}
	if prec > w {
		return nil, fmt.Errorf("fpzip: precision %d exceeds %d-bit width", prec, w)
	}
	outer, nx, ny, nz, err := core.Geometry(dims, maxElems)
	if err != nil {
		return nil, err
	}
	n := outer * nx * ny * nz
	if n != len(vals) {
		return nil, fmt.Errorf("fpzip: %w: dims %v describe %d elements, have %d",
			core.ErrInvalidDims, dims, n, len(vals))
	}
	shift := w - prec

	hdr, err := core.AppendFloatShape[T]([]byte(magicV2), dims)
	if err != nil {
		return nil, err
	}
	hdr = append(hdr, byte(prec))

	enc := rangecoder.NewEncoder()
	raw := bitstream.NewWriter(len(vals))
	cdr := newCoder()
	recon := make([]uint64, nx*ny*nz)
	sliceLen := nx * ny * nz
	for o := 0; o < outer; o++ {
		src := vals[o*sliceLen : (o+1)*sliceLen]
		i := 0
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				for z := 0; z < nz; z++ {
					var u uint64
					if w == 32 {
						u = f32ToOrd(float32(src[i]))
					} else {
						u = f64ToOrd(float64(src[i]))
					}
					u >>= shift
					pred := lorenzo(recon, x, y, z, ny, nz)
					cdr.encodeResidual(enc, raw, int64(u-pred))
					recon[i] = u
					i++
				}
			}
		}
	}
	rc, rawBytes := enc.Finish(), raw.Bytes()
	out := make([]byte, 0, len(hdr)+binary.MaxVarintLen64+len(rc)+len(rawBytes))
	out = append(out, hdr...)
	out = binary.AppendUvarint(out, uint64(len(rc)))
	out = append(out, rc...)
	return append(out, rawBytes...), nil
}
