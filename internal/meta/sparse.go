package meta

import (
	"encoding/binary"
	"fmt"
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

func (p *sparse) Prefix() string  { return "sparse" }
func (p *sparse) Version() string { return Version }

var sparseSchema = core.NewSchema(
	core.Field(keySparseThreshold, "values within this distance of zero are masked out and reconstruct as exact zeros", core.AtLeast(0),
		func(p *sparse) *float64 { return &p.threshold }),
	childRow("sparse", func(p *sparse) *child { return &p.child }),
)

func (p *sparse) Options() *core.Options             { return sparseSchema.Options(p) }
func (p *sparse) SetOptions(o *core.Options) error   { return sparseSchema.Set(p, o) }
func (p *sparse) CheckOptions(o *core.Options) error { return sparseSchema.Check(p, o) }
func (p *sparse) Schema() []core.OptionSpec          { return sparseSchema.Specs() }

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
	if in.DType() != core.DTypeFloat32 && in.DType() != core.DTypeFloat64 {
		return fmt.Errorf("%w: sparse supports float32/float64, got %s", core.ErrInvalidDType, in.DType())
	}
	n := int(in.Len())
	occupied := make([]bool, n)
	dense := 0
	if in.DType() == core.DTypeFloat32 {
		for i, v := range in.Float32s() {
			if math.Abs(float64(v)) > p.threshold {
				occupied[i] = true
				dense++
			}
		}
	} else {
		for i, v := range in.Float64s() {
			if math.Abs(v) > p.threshold {
				occupied[i] = true
				dense++
			}
		}
	}
	// Pack the dense values into a 1-D buffer for the child.
	var packed *core.Data
	if in.DType() == core.DTypeFloat32 {
		vals := make([]float32, 0, dense)
		for i, v := range in.Float32s() {
			if occupied[i] {
				vals = append(vals, v)
			}
		}
		packed = core.FromFloat32s(vals, uint64(len(vals)))
	} else {
		vals := make([]float64, 0, dense)
		for i, v := range in.Float64s() {
			if occupied[i] {
				vals = append(vals, v)
			}
		}
		packed = core.FromFloat64s(vals, uint64(len(vals)))
	}
	var inner *core.Data
	if dense > 0 {
		inner, err = core.Compress(comp, packed)
		if err != nil {
			return err
		}
	} else {
		inner = core.NewBytes(nil)
	}
	// Run-length encode the occupancy mask: alternating run lengths
	// starting with the empty state.
	var mask []byte
	run := uint64(0)
	state := false
	for _, occ := range occupied {
		if occ == state {
			run++
			continue
		}
		mask = binary.AppendUvarint(mask, run)
		state = occ
		run = 1
	}
	mask = binary.AppendUvarint(mask, run)
	packedMask, err := lossless.Deflate(mask, 0)
	if err != nil {
		return err
	}

	var buf []byte
	buf = append(buf, sparseMagic...)
	buf = append(buf, byte(in.DType()))
	buf = append(buf, byte(in.NumDims()))
	for _, d := range in.Dims() {
		buf = binary.AppendUvarint(buf, d)
	}
	buf = binary.AppendUvarint(buf, uint64(dense))
	buf = binary.AppendUvarint(buf, uint64(len(packedMask)))
	buf = append(buf, packedMask...)
	buf = append(buf, inner.Bytes()...)
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *sparse) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	if len(b) < 6 || string(b[:4]) != sparseMagic {
		return ErrCorrupt
	}
	dtype := core.DType(b[4])
	rank := int(b[5])
	if rank == 0 || rank > 16 || (dtype != core.DTypeFloat32 && dtype != core.DTypeFloat64) {
		return ErrCorrupt
	}
	pos := 6
	dims := make([]uint64, rank)
	total := uint64(1)
	for i := range dims {
		v, sz := binary.Uvarint(b[pos:])
		if sz <= 0 || v == 0 {
			return ErrCorrupt
		}
		dims[i] = v
		total *= v
		if total > 1<<40 {
			return ErrCorrupt // declared-shape bomb
		}
		pos += sz
	}
	dense, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || dense > total {
		return ErrCorrupt
	}
	pos += sz
	maskLen, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || maskLen > uint64(len(b)-pos) {
		return ErrCorrupt
	}
	pos += sz
	mask, err := lossless.Inflate(b[pos : pos+int(maskLen)])
	if err != nil {
		return err
	}
	pos += int(maskLen)

	// Decode occupancy runs.
	occupied := make([]bool, total)
	idx := uint64(0)
	state := false
	moff := 0
	for idx < total {
		run, sz := binary.Uvarint(mask[moff:])
		if sz <= 0 || idx+run > total {
			return ErrCorrupt
		}
		moff += sz
		if state {
			for k := uint64(0); k < run; k++ {
				occupied[idx+k] = true
			}
		}
		idx += run
		state = !state
	}

	var packed *core.Data
	if dense > 0 {
		packed = core.NewEmpty(dtype, dense)
		if err := comp.Decompress(core.NewBytes(b[pos:]), packed); err != nil {
			return err
		}
		if packed.Len() != dense {
			return ErrCorrupt
		}
	}
	result := core.NewData(dtype, dims...)
	di := 0
	if dtype == core.DTypeFloat32 {
		dst := result.Float32s()
		var src []float32
		if packed != nil {
			src = packed.Float32s()
		}
		for i, occ := range occupied {
			if occ {
				dst[i] = src[di]
				di++
			}
		}
	} else {
		dst := result.Float64s()
		var src []float64
		if packed != nil {
			src = packed.Float64s()
		}
		for i, occ := range occupied {
			if occ {
				dst[i] = src[di]
				di++
			}
		}
	}
	if uint64(di) != dense {
		return ErrCorrupt
	}
	out.Become(result)
	return nil
}

func (p *sparse) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
