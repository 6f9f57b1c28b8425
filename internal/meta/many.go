package meta

import (
	"fmt"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// mergeWorkerMetrics collects each worker clone's metric results in worker
// index order. Buffers are assigned to workers statically (worker w takes
// buffers w, w+W, w+2W, ...), so both the per-worker measurements and this
// merge are deterministic for a fixed worker count — scheduling cannot
// reorder them. Later workers overwrite colliding keys, matching
// Options.Merge semantics everywhere else in the framework.
func mergeWorkerMetrics(workers []*core.Compressor) *core.Options {
	merged := core.NewOptions()
	for _, w := range workers {
		if w != nil {
			merged.Merge(w.MetricsResults())
		}
	}
	return merged
}

// CompressMany is the "Many Independent" meta-compressor: it compresses
// several buffers concurrently using clones of the prototype compressor
// (embarrassingly parallel). It respects the prototype's declared thread
// safety: "single" plugins are run serially.
func CompressMany(proto *core.Compressor, bufs []*core.Data, nthreads int) ([]*core.Data, error) {
	results, _, err := CompressManyWithMetrics(proto, bufs, nthreads)
	return results, err
}

// CompressManyWithMetrics is CompressMany plus metric accounting: each
// worker gets its own clone of the prototype's attached Metric (so no state
// is shared across goroutines), and after the barrier the per-worker results
// are merged in worker index order. Buffers are statically partitioned
// across workers, which makes the merged Options deterministic for a fixed
// worker count.
func CompressManyWithMetrics(proto *core.Compressor, bufs []*core.Data, nthreads int) ([]*core.Data, *core.Options, error) {
	if proto == nil {
		return nil, nil, fmt.Errorf("meta: %w: nil compressor", core.ErrNilData)
	}
	results := make([]*core.Data, len(bufs))
	parent := trace.Current()
	clones, err := core.ForEachClone(proto, len(bufs), nthreads, func(worker *core.Compressor, w, i int) (err error) {
		sp := parent.StartChild("many.compress",
			trace.Int("worker", int64(w)), trace.Int("buffer", int64(i)))
		defer sp.End()
		results[i], err = core.Compress(worker, bufs[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return results, mergeWorkerMetrics(clones), nil
}

// DecompressMany is the inverse of CompressMany; hints supply the per-buffer
// output dtype/dims the same way Decompress does.
func DecompressMany(proto *core.Compressor, comps, hints []*core.Data, nthreads int) ([]*core.Data, error) {
	results, _, err := DecompressManyWithMetrics(proto, comps, hints, nthreads)
	return results, err
}

// DecompressManyWithMetrics mirrors CompressManyWithMetrics for the
// decompression direction.
func DecompressManyWithMetrics(proto *core.Compressor, comps, hints []*core.Data, nthreads int) ([]*core.Data, *core.Options, error) {
	if proto == nil {
		return nil, nil, fmt.Errorf("meta: %w: nil compressor", core.ErrNilData)
	}
	if len(comps) != len(hints) {
		return nil, nil, fmt.Errorf("meta: %w: %d streams, %d hints", core.ErrInvalidDims, len(comps), len(hints))
	}
	results := make([]*core.Data, len(comps))
	parent := trace.Current()
	clones, err := core.ForEachClone(proto, len(comps), nthreads, func(worker *core.Compressor, w, i int) error {
		sp := parent.StartChild("many.decompress",
			trace.Int("worker", int64(w)), trace.Int("buffer", int64(i)))
		defer sp.End()
		results[i] = core.NewEmpty(hints[i].DType(), hints[i].Dims()...)
		return worker.Decompress(comps[i], results[i])
	})
	if err != nil {
		return nil, nil, err
	}
	return results, mergeWorkerMetrics(clones), nil
}

// Feedback maps the metric results of one buffer to option updates for the
// next — e.g. forwarding the previous timestep's tuned error bound.
type Feedback func(step int, results *core.Options) *core.Options

// CompressManyDependent is the "Many Dependent" meta-compressor: a pipeline
// in which buffer i's metrics configure buffer i+1's compression. The first
// buffer runs with the compressor's current options; after each buffer the
// feedback callback may return options applied before the next one.
func CompressManyDependent(proto *core.Compressor, bufs []*core.Data, metrics []string, fb Feedback) ([]*core.Data, error) {
	comp := proto.Clone()
	if len(metrics) > 0 {
		m, err := core.NewMetrics(metrics...)
		if err != nil {
			return nil, err
		}
		comp.SetMetrics(m)
	}
	results := make([]*core.Data, len(bufs))
	for i, buf := range bufs {
		out, err := core.Compress(comp, buf)
		if err != nil {
			return nil, err
		}
		results[i] = out
		if fb != nil {
			if opts := fb(i, comp.MetricsResults()); opts != nil {
				if err := comp.SetOptions(opts); err != nil {
					return nil, err
				}
			}
		}
	}
	return results, nil
}
