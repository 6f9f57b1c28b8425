// Package h5lite implements a minimal self-describing chunked container
// file format standing in for HDF5 in this reproduction (the substitution
// is documented in DESIGN.md). Like HDF5 it stores named n-dimensional
// datasets with type metadata, splits them into chunks along the slowest
// dimension, and supports *filters*: per-chunk transforms applied on write
// and undone on read. Filters are compressor plugins from the framework
// registry, so the generic "HDF5 filter" client of Table II is a few lines
// — exactly the economics the paper measures.
//
// File layout:
//
//	magic "H5LITE1\n"
//	uint64 little-endian JSON index length
//	JSON index (datasets: name -> {dtype, dims, filter, options, chunks})
//	concatenated chunk payloads
package h5lite

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

// ErrFormat reports an unreadable container.
var ErrFormat = errors.New("h5lite: bad format")

// ErrNotFound reports a missing dataset.
var ErrNotFound = errors.New("h5lite: dataset not found")

// ErrOutOfRange reports a read outside a dataset's extent: the caller's
// mistake, not a damaged container.
var ErrOutOfRange = errors.New("h5lite: rows outside the dataset's extent")

var magic = []byte("H5LITE1\n")

// chunkInfo locates one stored chunk in the blob section.
type chunkInfo struct {
	Rows   uint64 `json:"rows"` // extent along dim 0 covered by this chunk
	Offset uint64 `json:"offset"`
	Length uint64 `json:"length"`
}

// datasetInfo is the stored metadata of one dataset.
type datasetInfo struct {
	DType   string             `json:"dtype"`
	Dims    []uint64           `json:"dims"`
	Filter  string             `json:"filter,omitempty"`
	Options map[string]float64 `json:"options,omitempty"`
	Chunks  []chunkInfo        `json:"chunks"`
}

type index struct {
	Datasets map[string]datasetInfo `json:"datasets"`
}

// DatasetOptions configures how a dataset is stored.
type DatasetOptions struct {
	// ChunkRows is the number of dim-0 rows per chunk (0 = single chunk).
	ChunkRows uint64
	// Filter names a registered compressor applied per chunk ("" = none).
	Filter string
	// FilterOptions are numeric options applied to the filter compressor
	// (e.g. {"pressio:abs": 1e-4}).
	FilterOptions map[string]float64
}

// File is an in-memory handle to a container; Save persists it.
type File struct {
	path  string
	idx   index
	blobs map[string][][]byte // per dataset, per chunk
}

// Create starts a new empty container that will be written to path.
func Create(path string) *File {
	return &File{
		path:  path,
		idx:   index{Datasets: map[string]datasetInfo{}},
		blobs: map[string][][]byte{},
	}
}

// Open reads an existing container.
func Open(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(magic)+8 || string(raw[:len(magic)]) != string(magic) {
		return nil, ErrFormat
	}
	hlen := binary.LittleEndian.Uint64(raw[len(magic):])
	base := uint64(len(magic)) + 8
	if hlen > uint64(len(raw))-base {
		return nil, ErrFormat
	}
	var idx index
	if err := json.Unmarshal(raw[base:base+hlen], &idx); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	f := &File{path: path, idx: idx, blobs: map[string][][]byte{}}
	blobBase := base + hlen
	for name, info := range idx.Datasets {
		chunks := make([][]byte, len(info.Chunks))
		for i, ch := range info.Chunks {
			if ch.Offset > uint64(len(raw)) || ch.Length > uint64(len(raw)) {
				return nil, ErrFormat
			}
			lo := blobBase + ch.Offset
			hi := lo + ch.Length
			if hi > uint64(len(raw)) || lo > hi {
				return nil, ErrFormat
			}
			chunks[i] = append([]byte(nil), raw[lo:hi]...)
		}
		f.blobs[name] = chunks
	}
	return f, nil
}

// filterFor instantiates the filter compressor for a dataset.
func filterFor(name string, opts map[string]float64) (*core.Compressor, error) {
	c, err := core.NewCompressor(name)
	if err != nil {
		return nil, err
	}
	o := core.NewOptions()
	for k, v := range opts {
		o.SetValue(k, v)
	}
	if err := c.SetOptions(o); err != nil {
		return nil, err
	}
	return c, nil
}

// eachChunk runs fn over n chunks: across workers with a clone of the filter
// each when there is one, in place when the chunks are only copied.
func eachChunk(filter *core.Compressor, n int, fn func(c *core.Compressor, i int) error) error {
	if filter == nil {
		return core.ForEach(n, 1, func(_, i int) error { return fn(nil, i) })
	}
	_, err := core.ForEachClone(filter, n, 0, func(c *core.Compressor, _, i int) error { return fn(c, i) })
	return err
}

// FilterChunks is the filter step of WriteDataset on its own: d split into
// opts.ChunkRows-row chunks along dimension 0, each in its stored
// (post-filter) form, and the metadata that describes them. The object store
// journals and checksums these before any container exists.
func FilterChunks(d *core.Data, opts DatasetOptions) ([]RawChunk, DatasetMeta, error) {
	if d == nil || !d.HasData() || d.NumDims() == 0 {
		return nil, DatasetMeta{}, fmt.Errorf("h5lite: %w", core.ErrNilData)
	}
	var filter *core.Compressor
	if opts.Filter != "" {
		var err error
		filter, err = filterFor(opts.Filter, opts.FilterOptions)
		if err != nil {
			return nil, DatasetMeta{}, err
		}
	}
	rowsTotal := d.Dims()[0]
	chunkRows := opts.ChunkRows
	if chunkRows == 0 || chunkRows > rowsTotal {
		chunkRows = max(rowsTotal, 1)
	}
	chunks := make([]RawChunk, (rowsTotal+chunkRows-1)/chunkRows)
	err := eachChunk(filter, len(chunks), func(c *core.Compressor, i int) error {
		start := uint64(i) * chunkRows
		rows, err := d.Rows(start, min(chunkRows, rowsTotal-start))
		if err != nil {
			return err
		}
		chunks[i].Rows = rows.Dims()[0]
		if c == nil {
			chunks[i].Payload = bytes.Clone(rows.Bytes())
			return nil
		}
		comp, err := core.Compress(c, rows)
		if err != nil {
			return err
		}
		chunks[i].Payload = comp.Bytes()
		return nil
	})
	return chunks, DatasetMeta{
		DType:   d.DType().String(),
		Dims:    append([]uint64(nil), d.Dims()...),
		Filter:  opts.Filter,
		Options: opts.FilterOptions,
	}, err
}

// WriteDataset stores d under name, replacing any existing dataset.
func (f *File) WriteDataset(name string, d *core.Data, opts DatasetOptions) error {
	chunks, meta, err := FilterChunks(d, opts)
	if err != nil {
		return err
	}
	f.put(name, meta, chunks)
	return nil
}

// put records a dataset whose chunk payloads the container now owns.
func (f *File) put(name string, m DatasetMeta, chunks []RawChunk) {
	infos := make([]chunkInfo, len(chunks))
	blobs := make([][]byte, len(chunks))
	for i, ch := range chunks {
		infos[i] = chunkInfo{Rows: ch.Rows, Length: uint64(len(ch.Payload))}
		blobs[i] = ch.Payload
	}
	f.idx.Datasets[name] = datasetInfo{DType: m.DType, Dims: m.Dims, Filter: m.Filter, Options: m.Options, Chunks: infos}
	f.blobs[name] = blobs
}

// ReadDataset decodes the named dataset, undoing the filter per chunk.
func (f *File) ReadDataset(name string) (*core.Data, error) {
	info, ok := f.idx.Datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f.readRows(name, info, 0, info.Dims[0])
}

// ReadRows decodes only the chunks overlapping rows [start, start+count)
// along dimension 0 — the payoff of chunked storage: a slab read touches
// (and decompresses) a fraction of the dataset.
func (f *File) ReadRows(name string, start, count uint64) (*core.Data, error) {
	info, ok := f.idx.Datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// start+count may wrap, so compare against what is left after count.
	if count == 0 || count > info.Dims[0] || start > info.Dims[0]-count {
		return nil, fmt.Errorf("%w: %d rows from %d of %d", ErrOutOfRange, count, start, info.Dims[0])
	}
	return f.readRows(name, info, start, count)
}

// readRows is the one chunk-decode loop: rows [start, start+count), which
// the caller has checked lie inside the dataset.
func (f *File) readRows(name string, info datasetInfo, start, count uint64) (*core.Data, error) {
	dtype, err := core.ParseDType(info.DType)
	if err != nil {
		return nil, err
	}
	var filter *core.Compressor
	if info.Filter != "" {
		filter, err = filterFor(info.Filter, info.Options)
		if err != nil {
			return nil, err
		}
	}
	out := core.NewData(dtype, append([]uint64{count}, info.Dims[1:]...)...)

	// The chunks that overlap the rows asked for, each with the dataset row
	// it starts at; the others are never decompressed.
	type piece struct {
		chunk int
		first uint64
	}
	var pieces []piece
	row := uint64(0)
	for i, ch := range info.Chunks {
		if row < start+count && row+ch.Rows > start {
			pieces = append(pieces, piece{i, row})
		}
		row += ch.Rows
	}
	if row < start+count {
		return nil, ErrFormat
	}
	err = eachChunk(filter, len(pieces), func(c *core.Compressor, i int) error {
		p := pieces[i]
		rows := info.Chunks[p.chunk].Rows
		chunkDims := append([]uint64{rows}, info.Dims[1:]...)
		raw := f.blobs[name][p.chunk]
		if c != nil {
			dec, err := core.Decompress(c, core.NewBytes(raw), dtype, chunkDims...)
			if err != nil {
				return err
			}
			raw = dec.Bytes()
		}
		chunk, err := core.NewMove(dtype, raw, chunkDims...)
		if err != nil {
			return ErrFormat
		}
		lo, hi := max(start, p.first), min(start+count, p.first+rows)
		src, err := chunk.Rows(lo-p.first, hi-lo)
		if err != nil {
			return ErrFormat
		}
		dst, err := out.Rows(lo-start, hi-lo)
		if err != nil {
			return ErrFormat
		}
		copy(dst.Bytes(), src.Bytes())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RawChunk is one stored chunk in its on-disk (post-filter) form: the rows
// it covers along dimension 0 and the compressed payload bytes. The object
// store uses raw chunks to checksum, journal, and rebuild containers without
// re-running the filter.
type RawChunk struct {
	Rows    uint64
	Payload []byte
}

// DatasetMeta is the exported view of a stored dataset's metadata.
type DatasetMeta struct {
	DType   string
	Dims    []uint64
	Filter  string
	Options map[string]float64
}

// RawChunks returns the stored chunks of the named dataset. Payloads alias
// the container's buffers; callers must not mutate them.
func (f *File) RawChunks(name string) ([]RawChunk, error) {
	info, ok := f.idx.Datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	out := make([]RawChunk, len(info.Chunks))
	for i, ch := range info.Chunks {
		out[i] = RawChunk{Rows: ch.Rows, Payload: f.blobs[name][i]}
	}
	return out, nil
}

// WriteRawDataset stores already-filtered chunks under name, bypassing the
// filter (the payloads are recorded as-is). The journal replay path of the
// object store uses it to rebuild a container from logged chunk payloads
// without owning the original uncompressed data. The chunk rows must sum to
// dims[0].
func (f *File) WriteRawDataset(name, dtype string, dims []uint64, filter string, options map[string]float64, chunks []RawChunk) error {
	if _, err := core.ParseDType(dtype); err != nil {
		return err
	}
	if len(dims) == 0 {
		return fmt.Errorf("h5lite: %w", core.ErrNilData)
	}
	var rows uint64
	owned := make([]RawChunk, len(chunks))
	for i, ch := range chunks {
		rows += ch.Rows
		owned[i] = RawChunk{Rows: ch.Rows, Payload: bytes.Clone(ch.Payload)}
	}
	if rows != dims[0] {
		return fmt.Errorf("h5lite: raw chunks cover %d rows, dims declare %d", rows, dims[0])
	}
	f.put(name, DatasetMeta{DType: dtype, Dims: append([]uint64(nil), dims...), Filter: filter, Options: options}, owned)
	return nil
}

// Names lists the stored datasets, sorted.
func (f *File) Names() []string { return slices.Sorted(maps.Keys(f.idx.Datasets)) }

// Save writes the container to its path.
func (f *File) Save() error {
	// Assign blob offsets in sorted-name order for determinism.
	names := f.Names()
	offset := uint64(0)
	for _, name := range names {
		chunks := f.idx.Datasets[name].Chunks
		for i := range chunks {
			chunks[i].Offset = offset
			offset += chunks[i].Length
		}
	}
	hdr, err := json.Marshal(f.idx)
	if err != nil {
		return err
	}
	// The offsets gave the blob section's size: every byte is written once,
	// into a buffer that never regrows.
	out := make([]byte, 0, uint64(len(magic)+8+len(hdr))+offset)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(hdr)))
	out = append(out, hdr...)
	for _, name := range names {
		for _, blob := range f.blobs[name] {
			out = append(out, blob...)
		}
	}
	// Crash-consistent publish: a container rewrite that dies mid-write must
	// leave the previous generation intact (same temp+fsync+rename path as
	// internal/pio; see the kill-mid-write tests).
	return fsx.AtomicWriteFile(f.path, out, 0o644)
}
