package meta

import (
	"encoding/binary"
	"fmt"
	"math"

	"pressio/internal/core"
)

// Option keys the shape-transform meta-compressors own.
const (
	keyTransposeAxes = "transpose:axes"
	keyResizeDims    = "resize:dims"
	keySampleStride  = "sample:stride"
	keyQuantizerStep = "linear_quantizer:step"
)

func init() {
	core.RegisterCompressor("transpose", func() core.CompressorPlugin {
		return &transpose{child: child{Name: "sz_threadsafe"}}
	})
	core.RegisterCompressor("resize", func() core.CompressorPlugin {
		return &resize{child: child{Name: "zfp"}}
	})
	core.RegisterCompressor("sample", func() core.CompressorPlugin {
		return &sample{child: child{Name: "sz_threadsafe"}, stride: 2}
	})
	core.RegisterCompressor("delta_encoding", func() core.CompressorPlugin {
		return &deltaMeta{child: child{Name: "flate"}}
	})
	core.RegisterCompressor("linear_quantizer", func() core.CompressorPlugin {
		return &linQuant{child: child{Name: "shuffle"}, step: 1e-4}
	})
}

// Transpose permutes the data of a tensor into C-order layout under the
// permuted dims. perm[i] gives the source axis for destination axis i.
func Transpose(d *core.Data, perm []uint64) (*core.Data, error) {
	dims := d.Dims()
	if len(perm) != len(dims) {
		return nil, fmt.Errorf("%w: perm rank %d vs data rank %d", core.ErrInvalidDims, len(perm), len(dims))
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p >= uint64(len(perm)) || seen[p] {
			return nil, fmt.Errorf("%w: invalid permutation %v", core.ErrInvalidOption, perm)
		}
		seen[p] = true
	}
	outDims := make([]uint64, len(dims))
	for i, p := range perm {
		outDims[i] = dims[p]
	}
	out := core.NewData(d.DType(), outDims...)
	elem := uint64(d.DType().Size())
	src := d.Bytes()
	dst := out.Bytes()
	// Walk destination indices in order; gather from the source.
	n := d.Len()
	rank := len(dims)
	idx := make([]uint64, rank)
	srcIdx := make([]uint64, rank)
	for lin := uint64(0); lin < n; lin++ {
		for i := 0; i < rank; i++ {
			srcIdx[perm[i]] = idx[i]
		}
		srcLin := uint64(0)
		for i := 0; i < rank; i++ {
			srcLin = srcLin*dims[i] + srcIdx[i]
		}
		copy(dst[lin*elem:(lin+1)*elem], src[srcLin*elem:(srcLin+1)*elem])
		for i := rank - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < outDims[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out, nil
}

// invertPerm returns the inverse permutation.
func invertPerm(perm []uint64) []uint64 {
	inv := make([]uint64, len(perm))
	for i, p := range perm {
		inv[p] = uint64(i)
	}
	return inv
}

// transpose applies a multi-dimensional transpose before compression and
// undoes it after decompression.
type transpose struct {
	child child
	perm  []uint64
}

const transposeMagic = "MTR1"

func (p *transpose) Prefix() string  { return "transpose" }
func (p *transpose) Version() string { return Version }

var transposeSchema = core.NewSchema(
	core.Uint64s(keyTransposeAxes, "axis permutation applied before compression (empty = reverse the axes)",
		func(p *transpose) *[]uint64 { return &p.perm }),
	childRow("transpose", func(p *transpose) *child { return &p.child }),
)

func (p *transpose) Options() *core.Options             { return transposeSchema.Options(p) }
func (p *transpose) SetOptions(o *core.Options) error   { return transposeSchema.Set(p, o) }
func (p *transpose) CheckOptions(o *core.Options) error { return transposeSchema.Check(p, o) }
func (p *transpose) Schema() []core.OptionSpec          { return transposeSchema.Specs() }

func (p *transpose) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
}

func (p *transpose) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	perm := p.perm
	if len(perm) == 0 {
		// Default: reverse the axes.
		perm = make([]uint64, in.NumDims())
		for i := range perm {
			perm[i] = uint64(in.NumDims() - 1 - i)
		}
	}
	tr, err := Transpose(in, perm)
	if err != nil {
		return err
	}
	inner, err := core.Compress(comp, tr)
	if err != nil {
		return err
	}
	// perm has the rank of the data, so AppendShape's rank byte and its bound
	// serve both vectors.
	buf, err := core.AppendShape([]byte(transposeMagic), perm)
	if err != nil {
		return err
	}
	for _, v := range tr.Dims() {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = append(buf, byte(tr.DType()))
	buf = append(buf, inner.Bytes()...)
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *transpose) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	if len(b) < 4 || string(b[:4]) != transposeMagic {
		return ErrCorrupt
	}
	rank, err := core.ReadRank(b[4:], core.MaxRank)
	if err != nil {
		return ErrCorrupt
	}
	pos := 5
	perm := make([]uint64, rank)
	for i := range perm {
		v, sz := binary.Uvarint(b[pos:])
		if sz <= 0 || v >= uint64(rank) {
			return ErrCorrupt
		}
		perm[i] = v
		pos += sz
	}
	trDims, _, n, err := core.ReadExtents(b[pos:], rank, maxElems)
	if err != nil {
		return ErrCorrupt
	}
	pos += n
	if pos >= len(b) {
		return ErrCorrupt
	}
	dtype := core.DType(b[pos])
	pos++
	dec, err := core.Decompress(comp, core.NewBytes(b[pos:]), dtype, trDims...)
	if err != nil {
		return err
	}
	if dec.NumDims() != rank {
		if err := dec.Reshape(trDims...); err != nil {
			return err
		}
	}
	back, err := Transpose(dec, invertPerm(perm))
	if err != nil {
		return err
	}
	out.Become(back)
	return nil
}

func (p *transpose) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// resize reinterprets the dimensions without touching values — useful when
// a compressor benefits from being told a different shape, e.g. an A×B×1
// dataset handed to the zfp-family codec as A×B (the §V padding
// experiment).
type resize struct {
	child   child
	newDims []uint64
}

const resizeMagic = "MRS1"

func (p *resize) Prefix() string  { return "resize" }
func (p *resize) Version() string { return Version }

var resizeSchema = core.NewSchema(
	core.Uint64s(keyResizeDims, "dimensions the child is told (same element count as the input)",
		func(p *resize) *[]uint64 { return &p.newDims }),
	childRow("resize", func(p *resize) *child { return &p.child }),
)

func (p *resize) Options() *core.Options             { return resizeSchema.Options(p) }
func (p *resize) SetOptions(o *core.Options) error   { return resizeSchema.Set(p, o) }
func (p *resize) CheckOptions(o *core.Options) error { return resizeSchema.Check(p, o) }
func (p *resize) Schema() []core.OptionSpec          { return resizeSchema.Specs() }

func (p *resize) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
}

func (p *resize) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	work := in
	if len(p.newDims) > 0 {
		work = in.Clone()
		if err := work.Reshape(p.newDims...); err != nil {
			return err
		}
	}
	inner, err := core.Compress(comp, work)
	if err != nil {
		return err
	}
	buf, err := core.AppendShape([]byte(resizeMagic), in.Dims())
	if err == nil {
		buf, err = core.AppendShape(buf, work.Dims())
	}
	if err != nil {
		return err
	}
	buf = append(buf, byte(in.DType()))
	buf = append(buf, inner.Bytes()...)
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *resize) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	if len(b) < 4 || string(b[:4]) != resizeMagic {
		return ErrCorrupt
	}
	origDims, _, n, err := core.ReadShape(b[4:], core.MaxRank, maxElems)
	if err != nil {
		return ErrCorrupt
	}
	pos := 4 + n
	workDims, _, n, err := core.ReadShape(b[pos:], core.MaxRank, maxElems)
	if err != nil {
		return ErrCorrupt
	}
	pos += n
	if pos >= len(b) {
		return ErrCorrupt
	}
	dtype := core.DType(b[pos])
	pos++
	dec, err := core.Decompress(comp, core.NewBytes(b[pos:]), dtype, workDims...)
	if err != nil {
		return err
	}
	if err := dec.Reshape(origDims...); err != nil {
		return err
	}
	out.Become(dec)
	return nil
}

func (p *resize) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// sample compresses a strided subsample of the input — the data-sampling
// meta-compressor used for quick quality surveys. Decompression returns the
// sample (shape divided by the stride along the slowest dimension).
type sample struct {
	child  child
	stride uint64
}

func (p *sample) Prefix() string  { return "sample" }
func (p *sample) Version() string { return Version }

var sampleSchema = core.NewSchema(
	core.Field(keySampleStride, "keep every stride-th row of the slowest dimension", core.AtLeast(1),
		func(p *sample) *uint64 { return &p.stride }),
	childRow("sample", func(p *sample) *child { return &p.child }),
)

func (p *sample) Options() *core.Options             { return sampleSchema.Options(p) }
func (p *sample) SetOptions(o *core.Options) error   { return sampleSchema.Set(p, o) }
func (p *sample) CheckOptions(o *core.Options) error { return sampleSchema.Check(p, o) }
func (p *sample) Schema() []core.OptionSpec          { return sampleSchema.Specs() }

func (p *sample) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
}

func (p *sample) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	dims := in.Dims()
	if len(dims) == 0 {
		return fmt.Errorf("sample: %w", core.ErrInvalidDims)
	}
	rows := (dims[0] + p.stride - 1) / p.stride
	rowBytes, err := core.RowBytes(in.DType(), dims)
	if err != nil {
		return err
	}
	sampDims := append([]uint64{rows}, dims[1:]...)
	samp := core.NewData(in.DType(), sampDims...)
	for r := uint64(0); r < rows; r++ {
		src := r * p.stride * rowBytes
		copy(samp.Bytes()[r*rowBytes:(r+1)*rowBytes], in.Bytes()[src:src+rowBytes])
	}
	inner, err := core.Compress(comp, samp)
	if err != nil {
		return err
	}
	out.Become(inner)
	return nil
}

func (p *sample) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

func (p *sample) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// deltaMeta applies a delta-encoding preprocessing step (in float64 space)
// before the child compressor and integrates after decompression. With a
// lossless child the transform is exactly invertible.
type deltaMeta struct {
	child child
}

const deltaMagic = "MDL1"

func (p *deltaMeta) Prefix() string  { return "delta_encoding" }
func (p *deltaMeta) Version() string { return Version }

var deltaSchema = core.NewSchema(
	childRow("delta_encoding", func(p *deltaMeta) *child { return &p.child }),
)

func (p *deltaMeta) Options() *core.Options             { return deltaSchema.Options(p) }
func (p *deltaMeta) SetOptions(o *core.Options) error   { return deltaSchema.Set(p, o) }
func (p *deltaMeta) CheckOptions(o *core.Options) error { return deltaSchema.Check(p, o) }
func (p *deltaMeta) Schema() []core.OptionSpec          { return deltaSchema.Specs() }

func (p *deltaMeta) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *deltaMeta) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if in.DType() != core.DTypeFloat64 && in.DType() != core.DTypeFloat32 &&
		in.DType() != core.DTypeInt64 && in.DType() != core.DTypeInt32 {
		return fmt.Errorf("%w: delta_encoding supports numeric 32/64-bit types", core.ErrInvalidDType)
	}
	work := in.Clone()
	switch in.DType() {
	case core.DTypeFloat64:
		deltaForward(work.Float64s())
	case core.DTypeFloat32:
		deltaForward(work.Float32s())
	case core.DTypeInt64:
		deltaForward(work.Int64s())
	case core.DTypeInt32:
		deltaForward(work.Int32s())
	}
	inner, err := core.Compress(comp, work)
	if err != nil {
		return err
	}
	buf, err := appendPrelude(deltaMagic, in.DType(), in.Dims())
	if err != nil {
		return err
	}
	buf = append(buf, inner.Bytes()...)
	out.Become(core.NewBytes(buf))
	return nil
}

func deltaForward[T int32 | int64 | float32 | float64](v []T) {
	for i := len(v) - 1; i > 0; i-- {
		v[i] -= v[i-1]
	}
}

func deltaInverse[T int32 | int64 | float32 | float64](v []T) {
	for i := 1; i < len(v); i++ {
		v[i] += v[i-1]
	}
}

func (p *deltaMeta) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	dtype, dims, total, pos, err := readPrelude(b, deltaMagic)
	if err != nil {
		return err
	}
	// A lossless child expands by at most ~three decimal orders of
	// magnitude, so a header whose declared shape dwarfs the embedded
	// stream is a decompression bomb, not a valid product of
	// CompressImpl — reject it before allocating the output.
	if total*uint64(dtype.Size()) > (uint64(len(b)-pos)+2)*4096 {
		return ErrCorrupt
	}
	dec, err := core.Decompress(comp, core.NewBytes(b[pos:]), dtype, dims...)
	if err != nil {
		return err
	}
	if dec.DType() != dtype || dec.Len() != total {
		// A corrupt inner stream can make the child hand back an opaque
		// byte buffer of the wrong size; the typed views below would panic.
		return ErrCorrupt
	}
	switch dtype {
	case core.DTypeFloat64:
		deltaInverse(dec.Float64s())
	case core.DTypeFloat32:
		deltaInverse(dec.Float32s())
	case core.DTypeInt64:
		deltaInverse(dec.Int64s())
	case core.DTypeInt32:
		deltaInverse(dec.Int32s())
	default:
		return ErrCorrupt
	}
	out.Become(dec)
	return nil
}

func (p *deltaMeta) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}

// linQuant performs linear-scaling quantization to int64 codes followed by
// a (typically lossless) child compressor; the absolute error bound is
// step/2. It demonstrates composing a compressor out of functional stages
// — quantization plus encoding — as §IV-D describes.
type linQuant struct {
	child child
	step  float64
}

const linQuantMagic = "MLQ1"

func (p *linQuant) Prefix() string  { return "linear_quantizer" }
func (p *linQuant) Version() string { return Version }

var linQuantSchema = core.NewSchema(
	core.Opt(core.KeyAbs, "pointwise absolute error bound (half the quantizer step)", core.Above(0),
		func(p *linQuant) (float64, bool) { return p.step / 2, true },
		func(p *linQuant, v float64) { p.step = 2 * v }),
	core.Field(keyQuantizerStep, "width of one quantization bin", core.Above(0),
		func(p *linQuant) *float64 { return &p.step }),
	childRow("linear_quantizer", func(p *linQuant) *child { return &p.child }),
)

func (p *linQuant) Options() *core.Options             { return linQuantSchema.Options(p) }
func (p *linQuant) SetOptions(o *core.Options) error   { return linQuantSchema.Set(p, o) }
func (p *linQuant) CheckOptions(o *core.Options) error { return linQuantSchema.Check(p, o) }
func (p *linQuant) Schema() []core.OptionSpec          { return linQuantSchema.Specs() }

func (p *linQuant) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", Version, false)
}

func (p *linQuant) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if !in.DType().Numeric() {
		return fmt.Errorf("%w: linear_quantizer needs numeric data", core.ErrInvalidDType)
	}
	vals := in.AsFloat64s()
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(vals)))
	for _, v := range vals {
		q := int64(math.Floor(v/p.step + 0.5))
		payload = binary.AppendVarint(payload, q)
	}
	inner, err := core.Compress(comp, core.NewBytes(payload))
	if err != nil {
		return err
	}
	buf, err := appendPrelude(linQuantMagic, in.DType(), in.Dims())
	if err != nil {
		return err
	}
	buf = binary.AppendUvarint(buf, math.Float64bits(p.step))
	buf = append(buf, inner.Bytes()...)
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *linQuant) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	dtype, dims, total, pos, err := readPrelude(b, linQuantMagic)
	if err != nil {
		return err
	}
	if !dtype.Numeric() {
		return ErrCorrupt
	}
	stepBits, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return ErrCorrupt
	}
	pos += sz
	step := math.Float64frombits(stepBits)
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return ErrCorrupt
	}
	decPayload := core.NewEmpty(core.DTypeByte, 0)
	if err := comp.Decompress(core.NewBytes(b[pos:]), decPayload); err != nil {
		return err
	}
	payload := decPayload.Bytes()
	count, sz := binary.Uvarint(payload)
	if sz <= 0 || count > uint64(len(payload)) {
		return ErrCorrupt
	}
	if count != total {
		// Corruption can desynchronize the embedded code count from the
		// declared shape; FromFloat64s would panic on the mismatch.
		return ErrCorrupt
	}
	off := sz
	vals := make([]float64, count)
	for i := range vals {
		q, sz := binary.Varint(payload[off:])
		if sz <= 0 {
			return ErrCorrupt
		}
		off += sz
		vals[i] = float64(q) * step
	}
	d64 := core.FromFloat64s(vals, dims...)
	if dtype == core.DTypeFloat64 {
		out.Become(d64)
		return nil
	}
	cast, err := d64.CastTo(dtype)
	if err != nil {
		return err
	}
	out.Become(cast)
	return nil
}

func (p *linQuant) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
