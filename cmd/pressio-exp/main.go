// Command pressio-exp is the distributed compression experiment harness
// (the paper's "experimental test harness ... distributed with MPI",
// DistributedExperiment in Table II). MPI ranks are modeled as goroutine
// workers exchanging work over channels: each rank owns a slab of the
// domain, compresses its slab with a clone of the configured compressor,
// and a root rank reduces the per-rank metrics — the same communication
// structure at laptop scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pressio/internal/core"
	"pressio/internal/sdrbench"

	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

type rankResult struct {
	rank       int
	elements   uint64
	compressed uint64
	raw        uint64
	durationMS float64
	err        error
}

func main() {
	var (
		ranks      = flag.Int("ranks", 8, "number of simulated MPI ranks")
		dataset    = flag.String("dataset", sdrbench.NameScaleLetKF, "synthetic dataset name")
		scale      = flag.Int("scale", 2, "dataset scale")
		compressor = flag.String("compressor", "sz_threadsafe", "compressor plugin")
		bound      = flag.Float64("bound", 1e-3, "pressio:rel bound")
		seed       = flag.Int64("seed", 1, "dataset seed")
	)
	flag.Parse()
	if err := run(*ranks, *dataset, *scale, *compressor, *bound, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pressio-exp:", err)
		os.Exit(1)
	}
}

func run(ranks int, dataset string, scale int, compressor string, bound float64, seed int64) error {
	data, ok := sdrbench.Generate(dataset, scale, seed)
	if !ok {
		return fmt.Errorf("unknown dataset %q (have %s)", dataset, strings.Join(sdrbench.Names(), ", "))
	}
	proto, err := core.NewCompressor(compressor)
	if err != nil {
		return err
	}
	if err := proto.SetOptions(core.NewOptions().SetValue(core.KeyRel, bound)); err != nil {
		return err
	}

	dims := data.Dims()
	d0 := dims[0]
	if uint64(ranks) > d0 {
		ranks = int(d0)
	}

	// "Scatter": each rank receives its slab over a channel, as an MPI
	// scatter would deliver it.
	type slab struct {
		rank int
		data *core.Data
	}
	work := make(chan slab, ranks)
	results := make(chan rankResult, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each rank owns an independent clone, as each MPI process
			// would own an independent library instance.
			local := proto.Clone()
			for s := range work {
				start := time.Now()
				comp, err := core.Compress(local, s.data)
				res := rankResult{rank: s.rank, elements: s.data.Len(), raw: s.data.ByteLen(),
					durationMS: float64(time.Since(start).Nanoseconds()) / 1e6, err: err}
				if err == nil {
					res.compressed = comp.ByteLen()
					// Verify the slab decodes on the "remote" side.
					if _, err := core.Decompress(local, comp, s.data.DType(), s.data.Dims()...); err != nil {
						res.err = err
					}
				}
				results <- res
			}
		}()
	}
	for r := 0; r < ranks; r++ {
		lo := uint64(r) * d0 / uint64(ranks)
		hi := uint64(r+1) * d0 / uint64(ranks)
		sd, err := data.Rows(lo, hi-lo)
		if err != nil {
			return err
		}
		work <- slab{rank: r, data: sd}
	}
	close(work)
	wg.Wait()
	close(results)

	// "Reduce" at the root rank.
	var all []rankResult
	for res := range results {
		all = append(all, res)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
	var totalRaw, totalComp uint64
	worstMS := 0.0
	fmt.Printf("%-6s %12s %12s %10s %10s\n", "rank", "elements", "compressed", "ratio", "ms")
	for _, res := range all {
		if res.err != nil {
			return fmt.Errorf("rank %d: %w", res.rank, res.err)
		}
		totalRaw += res.raw
		totalComp += res.compressed
		if res.durationMS > worstMS {
			worstMS = res.durationMS
		}
		fmt.Printf("%-6d %12d %12d %10.3f %10.2f\n",
			res.rank, res.elements, res.compressed,
			float64(res.raw)/float64(res.compressed), res.durationMS)
	}
	fmt.Printf("global ratio: %.3f over %d ranks; slowest rank: %.2f ms\n",
		float64(totalRaw)/float64(totalComp), len(all), worstMS)
	return nil
}
