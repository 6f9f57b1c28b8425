// Package meta implements the paper's "meta-compressors": plugins that
// satisfy the compressor interface but compose, transform, parallelize or
// perturb other compressors instead of coding data themselves — chunking,
// transpose, resize, sampling, delta encoding, linear quantization, fault
// and noise injection, runtime switching, and the many-independent /
// many-dependent parallel pipelines. They are what lets tools be written
// once against the generic interface and still benefit every compressor.
package meta

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the chunking meta-compressor owns.
const (
	keyChunkRows     = "chunking:chunk_rows"
	keyChunkNThreads = "chunking:nthreads"
)

// Version is the meta-compressor family version.
const Version = "1.0.0"

// ErrCorrupt reports a malformed meta-compressor stream.
var ErrCorrupt = fmt.Errorf("meta: %w", core.ErrCorrupt)

// maxElems caps the element count a meta-compressor stream may declare.
const maxElems = 1 << 40

// appendPrelude starts a framed stream the way chunking, sparse,
// delta_encoding and linear_quantizer do: magic, the core.DType as one byte,
// the shape.
func appendPrelude(magic string, dtype core.DType, dims []uint64) ([]byte, error) {
	return core.AppendShape(append([]byte(magic), byte(dtype)), dims)
}

// readPrelude parses what appendPrelude wrote and returns the offset of the
// byte after it; the caller decides which dtypes its format admits.
func readPrelude(b []byte, magic string) (dtype core.DType, dims []uint64, total uint64, pos int, err error) {
	if len(b) < 5 || string(b[:4]) != magic {
		return 0, nil, 0, 0, ErrCorrupt
	}
	dims, total, n, err := core.ReadShape(b[5:], core.MaxRank, maxElems)
	if err != nil {
		return 0, nil, 0, 0, ErrCorrupt
	}
	return core.DType(b[4]), dims, total, 5 + n, nil
}

// child is the wrapped compressor of a meta plugin: named by the option
// "<prefix>:compressor", it receives every option set on the parent, so one
// flat Options value configures the whole composition.
type child = core.Child[*core.Compressor]

// childRow declares "<prefix>:compressor" for a meta plugin whose child lives
// in the field the accessor returns.
func childRow[T any](prefix string, field func(*T) *child) core.Row[T] {
	return core.ChildRow(prefix+":compressor", "name of the wrapped compressor; it receives every option set here", field)
}

func init() {
	core.RegisterCompressor("chunking", func() core.CompressorPlugin {
		return &chunking{child: child{Name: "sz_threadsafe"}}
	})
}

// chunking splits the input along the slowest dimension and compresses the
// chunks concurrently with independent clones of the child compressor — the
// automatic task-parallelization meta-compressor. It consults the child's
// declared thread safety: "multiple" children share one instance per
// worker clone anyway (clones are cheap), while "single" children are
// compressed serially.
type chunking struct {
	child     child
	chunkRows uint64
	nthreads  int32
}

const chunkingMagic = "MCH1"

func (p *chunking) Prefix() string  { return "chunking" }
func (p *chunking) Version() string { return Version }

var chunkingSchema = core.NewSchema(
	core.Field(keyChunkRows, "rows of the slowest dimension per chunk (0 = split evenly over GOMAXPROCS)", core.Bounds{},
		func(p *chunking) *uint64 { return &p.chunkRows }),
	core.Field(core.KeyNThreads, "worker goroutines (0 = GOMAXPROCS)", core.Bounds{},
		func(p *chunking) *int32 { return &p.nthreads }),
	core.Field(keyChunkNThreads, "native spelling of pressio:nthreads", core.Bounds{},
		func(p *chunking) *int32 { return &p.nthreads }),
	childRow("chunking", func(p *chunking) *child { return &p.child }),
)

func (p *chunking) Options() *core.Options             { return chunkingSchema.Options(p) }
func (p *chunking) SetOptions(o *core.Options) error   { return chunkingSchema.Set(p, o) }
func (p *chunking) CheckOptions(o *core.Options) error { return chunkingSchema.Check(p, o) }
func (p *chunking) Schema() []core.OptionSpec          { return chunkingSchema.Specs() }

func (p *chunking) Configuration() *core.Options {
	cfg := core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
	cfg.SetValue("chunking:parallel", int32(1))
	return cfg
}

func (p *chunking) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	dims := in.Dims()
	if len(dims) == 0 {
		return fmt.Errorf("chunking: %w", core.ErrInvalidDims)
	}
	d0 := dims[0]
	chunkRows := p.chunkRows
	if chunkRows == 0 || chunkRows > d0 {
		n := uint64(runtime.GOMAXPROCS(0))
		chunkRows = (d0 + n - 1) / n
		if chunkRows == 0 {
			chunkRows = 1
		}
	}
	chunks := make([]*core.Data, (d0+chunkRows-1)/chunkRows)
	for i := range chunks {
		start := uint64(i) * chunkRows
		if chunks[i], err = in.Rows(start, min(chunkRows, d0-start)); err != nil {
			return err
		}
	}
	results := make([]*core.Data, len(chunks))
	// Chunk spans are parented under the enclosing compress_impl span (on
	// the caller's goroutine) so traces show wrapper -> plugin -> chunk.
	parent := trace.Current()
	if _, err := core.ForEachClone(comp, len(chunks), int(p.nthreads), func(worker *core.Compressor, w, i int) (err error) {
		sp := parent.StartChild("chunking.chunk",
			trace.Int("worker", int64(w)), trace.Int("chunk", int64(i)),
			trace.Uint("rows", chunks[i].Dims()[0]))
		defer sp.End()
		results[i], err = core.Compress(worker, chunks[i])
		return err
	}); err != nil {
		return err
	}

	buf, err := appendPrelude(chunkingMagic, in.DType(), dims)
	if err != nil {
		return err
	}
	buf = binary.AppendUvarint(buf, uint64(len(chunks)))
	for i, r := range results {
		buf = binary.AppendUvarint(buf, chunks[i].Dims()[0])
		buf = binary.AppendUvarint(buf, r.ByteLen())
	}
	for _, r := range results {
		buf = append(buf, r.Bytes()...)
	}
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *chunking) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	b := in.Bytes()
	dtype, dims, _, pos, err := readPrelude(b, chunkingMagic)
	if err != nil {
		return err
	}
	if dtype.Size() == 0 {
		return ErrCorrupt
	}
	nChunks, sz := binary.Uvarint(b[pos:])
	if sz <= 0 || nChunks == 0 || nChunks > 1<<24 {
		return ErrCorrupt
	}
	pos += sz
	type span struct {
		first, rows, size uint64 // rows [first, first+rows) of the result
		payload           []byte
	}
	spans := make([]span, nChunks)
	for i := range spans {
		r, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return ErrCorrupt
		}
		pos += sz
		l, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return ErrCorrupt
		}
		pos += sz
		spans[i].rows, spans[i].size = r, l
	}
	result := core.NewData(dtype, dims...)
	// Payloads and destination rows are both carved off what is left, so a
	// hostile length or row count is refused before any offset is formed.
	rest, row := b[pos:], uint64(0)
	for i := range spans {
		s := &spans[i]
		if s.size > uint64(len(rest)) || s.rows > dims[0]-row {
			return ErrCorrupt
		}
		s.payload, rest = rest[:s.size], rest[s.size:]
		s.first = row
		row += s.rows
	}
	if row != dims[0] {
		return ErrCorrupt
	}
	parent := trace.Current()
	if _, err := core.ForEachClone(comp, len(spans), int(p.nthreads), func(worker *core.Compressor, w, i int) error {
		s := spans[i]
		sp := parent.StartChild("chunking.chunk",
			trace.Int("worker", int64(w)), trace.Int("chunk", int64(i)),
			trace.Uint("rows", s.rows))
		defer sp.End()
		dst, err := result.Rows(s.first, s.rows)
		if err != nil {
			return ErrCorrupt
		}
		dec, err := core.Decompress(worker, core.NewBytes(s.payload), dtype, dst.Dims()...)
		if err != nil {
			return err
		}
		if dec.ByteLen() != dst.ByteLen() {
			return ErrCorrupt
		}
		copy(dst.Bytes(), dec.Bytes())
		return nil
	}); err != nil {
		return err
	}
	out.Become(result)
	return nil
}

func (p *chunking) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	return &clone
}
