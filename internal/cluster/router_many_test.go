package cluster

import (
	"context"
	"errors"

	"pressio/internal/core"
)

// Chunk is one unit of CompressMany/DecompressMany fan-out: an independent
// buffer with its own shape.
type Chunk struct {
	DType   core.DType
	Dims    []uint64
	Payload []byte
}

// manyFanout bounds the concurrent chunk requests of CompressMany and
// DecompressMany.
const manyFanout = 8

// CompressMany routes every chunk across the ring concurrently (bounded by
// manyFanout). Results are index-aligned with chunks: result i is chunk i's
// compressed payload or nil when errs[i] != nil. The returned error joins
// the per-chunk failures; callers that must not lose items check it against
// nil and retry only the nil slots.
func (r *Router) CompressMany(ctx context.Context, chunks []Chunk) ([][]byte, error) {
	return r.many(ctx, OpCompress, chunks)
}

// DecompressMany is the decompression counterpart of CompressMany.
func (r *Router) DecompressMany(ctx context.Context, chunks []Chunk) ([][]byte, error) {
	return r.many(ctx, OpDecompress, chunks)
}

func (r *Router) many(ctx context.Context, op string, chunks []Chunk) ([][]byte, error) {
	results := make([][]byte, len(chunks))
	errs := make([]error, len(chunks))
	// The failures are joined, not reduced to the first, so ForEach has
	// nothing to return.
	_ = core.ForEach(len(chunks), manyFanout, func(_, i int) error {
		results[i], errs[i] = r.route(ctx, op, chunks[i].DType, chunks[i].Dims, chunks[i].Payload)
		return nil
	})
	return results, errors.Join(errs...)
}
