package core

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the one row-slab fan-out: "split the slowest dimension, run a
// clone per piece, collect in order". A caller keeps only its slab policy
// (which rows make a piece) and what it does with a piece; the row size, the
// row view, the worker count and the goroutines live here.

// RowBytes returns the byte width of one row along dims[0]: the element size
// times the extents after the first. It fails with ErrInvalidDType for a
// dtype without a size and with ErrInvalidDims when dims is empty, a trailing
// extent is zero, or the product wraps.
func RowBytes(dtype DType, dims []uint64) (uint64, error) {
	size := uint64(dtype.Size())
	if size == 0 {
		return 0, fmt.Errorf("%w: %s has no element size", ErrInvalidDType, dtype)
	}
	if len(dims) == 0 {
		return 0, fmt.Errorf("%w: no dimensions", ErrInvalidDims)
	}
	if len(dims) == 1 {
		return size, nil
	}
	// At most elemCeiling elements of at most eight bytes: no wrap.
	n, err := CheckedElems(dims[1:], elemCeiling)
	return n * size, err
}

// Rows returns rows [start, start+n) along dimension 0 as a Data that
// aliases d's storage. It fails with ErrInvalidDims when the rows lie
// outside d (start+n is never formed, so it cannot wrap) or d has no row
// size; n may be zero.
func (d *Data) Rows(start, n uint64) (*Data, error) {
	rb, err := RowBytes(d.dtype, d.dims)
	if err != nil {
		return nil, err
	}
	if have := uint64(len(d.buf)) / rb; n > have || start > have-n {
		return nil, fmt.Errorf("%w: rows [%d, +%d) of %d", ErrInvalidDims, start, n, have)
	}
	dims := cloneDims(d.dims)
	dims[0] = n
	return &Data{dtype: d.dtype, dims: dims, buf: d.buf[start*rb : (start+n)*rb : (start+n)*rb]}, nil
}

// workerCount resolves a requested worker count for n items: workers <= 0
// means GOMAXPROCS, and there are never more workers than items.
func workerCount(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 0)
}

// ForEach calls fn(w, i) once for every i in [0, n) on at most
// min(workers, n) goroutines. Items are assigned statically: worker w takes
// i = w, w+W, w+2W, ... in that order, so which worker sees which item never
// depends on scheduling (per-worker state, such as a clone's metrics, is
// deterministic for a fixed worker count). One worker runs on the caller's
// goroutine. Every item is attempted whatever fails before it (a shared
// circuit breaker counts on seeing the rest of a failing batch); ForEach
// returns the error of the lowest failing index once every worker is done.
func ForEach(n, workers int, fn func(w, i int) error) error {
	workers = workerCount(n, workers)
	errs := make([]error, max(n, 0))
	run := func(w int) {
		for i := w; i < n; i += workers {
			errs[i] = fn(w, i)
		}
	}
	if workers <= 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachClone is ForEach with one clone of proto per worker, made by the
// worker that uses it, so no compressor state is shared between goroutines.
// A proto whose thread safety is "single" gets one worker. The clones come
// back in worker order for the caller to merge their metrics.
func ForEachClone(proto *Compressor, n, workers int, fn func(c *Compressor, w, i int) error) ([]*Compressor, error) {
	if proto.ThreadSafety() == ThreadSafetySingle {
		workers = 1
	}
	clones := make([]*Compressor, workerCount(n, workers))
	err := ForEach(n, len(clones), func(w, i int) error {
		if clones[w] == nil {
			clones[w] = proto.Clone()
		}
		return fn(clones[w], w, i)
	})
	return clones, err
}
