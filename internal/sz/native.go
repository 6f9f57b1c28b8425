package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"pressio/internal/core"
)

// The native API mirrors classic SZ's process-global configuration store:
// SZ_Init fills a global parameter block that every subsequent call reads,
// and SZ_Finalize releases it. This is exactly the construction-semantics
// hazard §IV-B of the paper discusses — a thread may only Finalize when it
// knows no other thread still uses SZ. The sz plugin serializes access; the
// sz_threadsafe plugin bypasses the store entirely.
var global struct {
	mu     sync.Mutex
	params Params
	inited bool
}

// ErrNotInitialized reports use of the global API before Init.
var ErrNotInitialized = errors.New("sz: not initialized (call Init first)")

// Init installs the process-global parameters (the analogue of SZ_Init).
func Init(p Params) {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.params = p
	global.inited = true
}

// Finalize clears the process-global parameters (the analogue of
// SZ_Finalize).
func Finalize() {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.inited = false
}

// Initialized reports whether the global store is live.
func Initialized() bool {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.inited
}

// globalParams snapshots the global store.
func globalParams() (Params, error) {
	global.mu.Lock()
	defer global.mu.Unlock()
	if !global.inited {
		return Params{}, ErrNotInitialized
	}
	return global.params, nil
}

// CompressFloat32 compresses using the global configuration, like the
// native SZ_compress entry point.
func CompressFloat32(vals []float32, dims []uint64) ([]byte, error) {
	p, err := globalParams()
	if err != nil {
		return nil, err
	}
	return CompressSlice(vals, dims, p)
}

// CompressFloat64 compresses float64 data using the global configuration.
func CompressFloat64(vals []float64, dims []uint64) ([]byte, error) {
	p, err := globalParams()
	if err != nil {
		return nil, err
	}
	return CompressSlice(vals, dims, p)
}

// DecompressFloat32 decodes a float32 stream (no global state needed, as in
// SZ where the stream is self-describing given the dims).
func DecompressFloat32(stream []byte) ([]float32, []uint64, error) {
	return DecompressSlice[float32](stream)
}

// DecompressFloat64 decodes a float64 stream.
func DecompressFloat64(stream []byte) ([]float64, []uint64, error) {
	return DecompressSlice[float64](stream)
}

// --- Parallel (OMP-style) variant -----------------------------------------

// ompMagic tags the framed multi-block format of the parallel variant.
const ompMagic = "SZMP"

// maxParallelBlocks caps the block count however large the nthreads option
// is, matching the 2^20 block ceiling DecompressParallel enforces.
const maxParallelBlocks = 1 << 20

// minHeaderBytes is the shortest header ParseHeader accepts: magic, dtype
// code, rank byte, one extent, the bound.
const minHeaderBytes = 4 + 1 + 1 + 1 + 1

// CompressParallel compresses by splitting the slowest dimension into
// roughly equal blocks compressed concurrently, the strategy of SZ-OMP.
// Each block is an independent CompressSlice stream, so the error bound is
// preserved per block. nthreads <= 0 selects GOMAXPROCS.
func CompressParallel[T core.Float](vals []T, dims []uint64, p Params, nthreads int) ([]byte, error) {
	if nthreads <= 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	n, err := core.CheckedElems(dims, maxElems)
	if err != nil {
		return nil, err
	}
	if n != uint64(len(vals)) {
		return nil, fmt.Errorf("sz: %w: dims %v describe %d elements, have %d", core.ErrInvalidDims, dims, n, len(vals))
	}
	if p.Mode == core.BoundValueRangeRel {
		// Resolve the range globally so all blocks share one absolute
		// bound (a per-block range would change the bound semantics).
		lo, hi := sliceRange(vals)
		p.Mode = core.BoundAbs
		p.Bound = p.Bound * (hi - lo)
		if p.Bound <= 0 {
			p.Bound = 1e-38
		}
	}
	d0 := int(dims[0])
	blocks := max(1, min(nthreads, d0, maxParallelBlocks))
	rowLen := len(vals) / d0
	results := make([][]byte, blocks)
	// nthreads is the block count the stream records; goroutines past the
	// CPU count would only add memory.
	err = core.ForEach(blocks, min(nthreads, runtime.GOMAXPROCS(0)), func(_, b int) (err error) {
		lo, hi := b*d0/blocks, (b+1)*d0/blocks
		blockDims := append([]uint64{uint64(hi - lo)}, dims[1:]...)
		results[b], err = CompressSlice(vals[lo*rowLen:hi*rowLen], blockDims, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := []byte(ompMagic)
	out = binary.AppendUvarint(out, uint64(blocks))
	for _, r := range results {
		out = binary.AppendUvarint(out, uint64(len(r)))
	}
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// parallelBlocks splits a CompressParallel stream into its block streams.
// Each declared size is bounded by what remains of the stream after the
// blocks before it, so no offset is formed that the stream does not hold.
func parallelBlocks(stream []byte) ([][]byte, error) {
	if len(stream) < 4 || string(stream[:4]) != ompMagic {
		return nil, ErrCorrupt
	}
	pos := 4
	nBlocks, sz := binary.Uvarint(stream[pos:])
	if sz <= 0 || nBlocks == 0 || nBlocks > maxParallelBlocks {
		return nil, ErrCorrupt
	}
	pos += sz
	// A block is a size varint and at least the smallest sz header, so the
	// stream's own length bounds the count before anything is sized by it.
	if nBlocks > uint64(len(stream)-pos)/(1+minHeaderBytes) {
		return nil, ErrCorrupt
	}
	sizes := make([]uint64, nBlocks)
	for i := range sizes {
		v, sz := binary.Uvarint(stream[pos:])
		if sz <= 0 {
			return nil, ErrCorrupt
		}
		sizes[i] = v
		pos += sz
	}
	rest := stream[pos:]
	blocks := make([][]byte, nBlocks)
	for i, size := range sizes {
		if size < minHeaderBytes || size > uint64(len(rest)) {
			return nil, ErrCorrupt
		}
		blocks[i], rest = rest[:size], rest[size:]
	}
	return blocks, nil
}

// DecompressParallel decodes a CompressParallel stream, decompressing
// blocks concurrently and reassembling along the slowest dimension.
func DecompressParallel[T core.Float](stream []byte, nthreads int) ([]T, []uint64, error) {
	blocks, err := parallelBlocks(stream)
	if err != nil {
		return nil, nil, err
	}
	type result struct {
		vals []T
		dims []uint64
	}
	results := make([]result, len(blocks))
	err = core.ForEach(len(blocks), min(nthreads, runtime.GOMAXPROCS(0)), func(_, i int) (err error) {
		results[i].vals, results[i].dims, err = DecompressSlice[T](blocks[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	dims := slices.Clone(results[0].dims)
	dims[0] = 0
	n := 0
	for _, r := range results {
		if len(r.dims) != len(dims) {
			return nil, nil, ErrCorrupt
		}
		dims[0] += r.dims[0]
		n += len(r.vals)
	}
	out := make([]T, 0, n)
	for _, r := range results {
		out = append(out, r.vals...)
	}
	return out, dims, nil
}

// ParallelHeader reports the element type and total dims of a
// CompressParallel stream without decoding it.
func ParallelHeader(stream []byte) (core.DType, []uint64, error) {
	blocks, err := parallelBlocks(stream)
	if err != nil {
		return core.DTypeUnset, nil, err
	}
	var dims []uint64
	var dtype core.DType
	for i, blk := range blocks {
		h, _, err := ParseHeader(blk)
		if err != nil {
			return core.DTypeUnset, nil, err
		}
		if i == 0 {
			dtype = h.DType
			dims = append([]uint64(nil), h.Dims...)
		} else {
			dims[0] += h.Dims[0]
		}
	}
	return dtype, dims, nil
}
