package meta

import (
	"encoding/binary"
	"math"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Option keys the sparse meta-compressor owns.
const (
	keySparseThreshold = "sparse:threshold"
)

func init() {
	core.RegisterCompressor("sparse", func() core.CompressorPlugin {
		return &sparse{child: child{Name: "sz_threadsafe"}}
	})
}

// sparse implements the paper's §VIII future-work item "better support for
// sparse data": values within sparse:threshold of zero are recorded in a
// run-length-coded occupancy mask, and only the dense remainder is handed
// to the child compressor (packed into a 1-D buffer). Two things a dense
// error-bounded compressor cannot offer: the background reconstructs as
// *exact* zeros (not zeros-within-eb), and a lossless child (e.g. fpzip)
// no longer pays to store a noise floor bit-exactly — the detector-data
// pattern behind SZ's ExaFEL mode.
type sparse struct {
	child     child
	threshold float64
}

const sparseMagic = "MSP1"

func (p *sparse) Prefix() string { return "sparse" }

var sparseSchema = core.NewSchema(
	core.Field(keySparseThreshold, "values within this distance of zero are masked out and reconstruct as exact zeros", core.AtLeast(0),
		func(p *sparse) *float64 { return &p.threshold }),
	childRow("sparse", func(p *sparse) *child { return &p.child }),
)

func (p *sparse) Opts() core.Opts { return sparseSchema.For(p) }

func (p *sparse) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
	cfg.SetValue("sparse:masked_value", 0.0)
	return cfg
}

func (p *sparse) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	return core.CompressFloat(in, out,
		func(v []float32, dims []uint64) ([]byte, error) { return sparseEncode(comp, v, dims, p.threshold) },
		func(v []float64, dims []uint64) ([]byte, error) { return sparseEncode(comp, v, dims, p.threshold) })
}

func sparseEncode[T core.Float](comp *core.Compressor, vals []T, dims []uint64, threshold float64) ([]byte, error) {
	// Pack the dense values into a 1-D buffer for the child and run-length
	// encode the occupancy mask: alternating run lengths starting with the
	// empty state.
	occupied := func(v T) bool { return math.Abs(float64(v)) > threshold }
	n := 0
	for _, v := range vals {
		if occupied(v) {
			n++
		}
	}
	dense := make([]T, 0, n)
	var mask []byte
	run, state := uint64(0), false
	for _, v := range vals {
		occ := occupied(v)
		if occ {
			dense = append(dense, v)
		}
		if occ == state {
			run++
			continue
		}
		mask = binary.AppendUvarint(mask, run)
		state, run = occ, 1
	}
	mask = binary.AppendUvarint(mask, run)
	packedMask, err := lossless.Deflate(mask, 0)
	if err != nil {
		return nil, err
	}
	inner := core.NewBytes(nil)
	if len(dense) > 0 {
		if inner, err = core.Compress(comp, core.FromFloats(dense)); err != nil {
			return nil, err
		}
	}
	buf, err := appendPrelude(sparseMagic, core.FloatDType[T](), dims)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(dense)))
	buf = binary.AppendUvarint(buf, uint64(len(packedMask)))
	buf = append(buf, packedMask...)
	return append(buf, inner.Bytes()...), nil
}

func (p *sparse) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	dtype, dims, total, pos, err := readPrelude(in.Bytes(), sparseMagic)
	if err != nil {
		return err
	}
	return core.DecompressFloat(dtype, in.Bytes()[pos:], out,
		func(b []byte) ([]float32, []uint64, error) { return sparseDecode[float32](comp, b, dims, total) },
		func(b []byte) ([]float64, []uint64, error) { return sparseDecode[float64](comp, b, dims, total) })
}

// sparseDecode decodes what follows the prelude of a stream of total
// elements shaped dims.
func sparseDecode[T core.Float](comp *core.Compressor, b []byte, dims []uint64, total uint64) ([]T, []uint64, error) {
	dense, sz := binary.Uvarint(b)
	if sz <= 0 || dense > total {
		return nil, nil, ErrCorrupt
	}
	b = b[sz:]
	maskLen, sz := binary.Uvarint(b)
	if sz <= 0 || maskLen > uint64(len(b)-sz) {
		return nil, nil, ErrCorrupt
	}
	// The mask is at most total+1 alternating runs, one uvarint each.
	mask, err := lossless.AppendInflate(nil, b[sz:sz+int(maskLen)], (total+1)*binary.MaxVarintLen64)
	if err != nil {
		return nil, nil, err
	}
	b = b[sz+int(maskLen):]

	var src []T
	if dense > 0 {
		packed := core.NewEmpty(core.FloatDType[T](), dense)
		if err := comp.Decompress(core.NewBytes(b), packed); err != nil {
			return nil, nil, err
		}
		if packed.DType() != core.FloatDType[T]() || packed.Len() != dense {
			return nil, nil, ErrCorrupt
		}
		src = core.FloatsOf[T](packed)
	}
	// Occupied runs take the next values of src in order. A run is bounded by
	// the cells left, and an occupied one by the values left, before anything
	// is indexed.
	dst := make([]T, total)
	idx, state := uint64(0), false
	for idx < total {
		run, sz := binary.Uvarint(mask)
		if sz <= 0 || run > total-idx || (state && run > uint64(len(src))) {
			return nil, nil, ErrCorrupt
		}
		mask = mask[sz:]
		if state {
			copy(dst[idx:idx+run], src)
			src = src[run:]
		}
		idx += run
		state = !state
	}
	if len(src) != 0 {
		return nil, nil, ErrCorrupt
	}
	return dst, dims, nil
}

func (p *sparse) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
