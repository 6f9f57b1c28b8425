// Optimizer demonstrates the configuration-search workflow the paper's
// LibPressio-Opt enables: hit a fixed compression ratio on any compressor,
// respect a quality floor, and race compressor types — all through the "opt"
// meta-compressor, without compressor-specific code.
package main

import (
	"fmt"
	"log"

	"pressio/internal/core"
	"pressio/internal/sdrbench"

	_ "pressio/internal/lossless"
	_ "pressio/internal/mgard"
	_ "pressio/internal/opt"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

// optimize compresses data through opt configured by opts and prints what it
// chose, the ratio and the PSNR; it returns the chosen bound.
func optimize(label string, data *core.Data, opts *core.Options) float64 {
	c, err := core.NewCompressor("opt")
	if err != nil {
		log.Fatal(err)
	}
	if err := c.SetOptions(opts); err != nil {
		log.Fatal(err)
	}
	m, err := core.NewMetrics("size", "error_stat")
	if err != nil {
		log.Fatal(err)
	}
	c.SetMetrics(m)
	comp, err := core.Compress(c, data)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.Decompress(c, comp, data.DType(), data.Dims()...); err != nil {
		log.Fatal(err)
	}
	res, chosen := c.MetricsResults(), c.Options()
	ratio, _ := res.GetFloat64("size:compression_ratio")
	psnr, _ := res.GetFloat64("error_stat:psnr")
	bound, _ := chosen.GetFloat64("opt:bound")
	name, _ := chosen.GetString("opt:chosen")
	evals, _ := chosen.GetUint64("opt:evaluations")
	fmt.Printf("%-22s %-14s bound=%-10.4g ratio=%6.2f psnr=%6.1f dB (%d evaluations)\n",
		label, name, bound, ratio, psnr, evals)
	return bound
}

func main() {
	data := sdrbench.ScaleLetKF(16, 48, 48, 7)
	fmt.Printf("dataset: weather-like field, dims %v\n\n", data.Dims())

	// 1. Fixed ratio: "give me 16x" (the FRaZ use case).
	optimize("fixed ratio 16x:", data, core.NewOptions().
		SetValue("opt:compressors", "sz").SetValue("opt:target_ratio", 16.0))

	// 2. Quality floor: the best ratio with PSNR >= 80 dB.
	bound := optimize("psnr floor 80 dB:", data, core.NewOptions().
		SetValue("opt:compressors", "sz").SetValue("opt:target_psnr", 80.0))

	// 3. Race compressor types at that bound: the highest ratio wins.
	optimize("race at that bound:", data, core.NewOptions().
		SetValue("opt:compressors", "sz,sz_omp,zfp,mgard,shuffle").
		SetValue(core.KeyAbs, bound))
}
