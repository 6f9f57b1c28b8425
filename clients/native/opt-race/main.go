// Command opt-race is the *native* "which compressor is best at this
// bound" tool: the third piece needed to match the generic optimizer's
// feature set (opt racing opt:compressors), integrating each compressor by
// hand. Supporting a new compressor means another case in every switch;
// the generic tool gets it for free from the registry.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"pressio/internal/core"
	"pressio/internal/fpzip"
	"pressio/internal/mgard"
	"pressio/internal/sz"
	"pressio/internal/zfp"
)

func main() {
	var (
		input    = flag.String("input", "", "flat binary float32 input")
		dimsFlag = flag.String("dims", "", "dims, slowest first")
		bound    = flag.Float64("bound", 1e-3, "absolute error bound (translated per compressor)")
	)
	flag.Parse()
	if err := run(*input, *dimsFlag, *bound); err != nil {
		fmt.Fprintln(os.Stderr, "opt-race:", err)
		os.Exit(1)
	}
}

func run(input, dimsFlag string, bound float64) error {
	raw, err := os.ReadFile(input)
	if err != nil {
		return err
	}
	var dims []uint64
	for _, p := range strings.Split(dimsFlag, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return fmt.Errorf("bad dims: %v", err)
		}
		dims = append(dims, v)
	}
	vals := make([]float32, len(raw)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}

	type entry struct {
		name  string
		ratio float64
		psnr  float64
	}
	var results []entry
	best := entry{ratio: -1}

	record := func(name string, stream []byte, dec []float32, err error) {
		if err != nil {
			fmt.Printf("%-8s failed: %v\n", name, err)
			return
		}
		e := entry{name: name, ratio: float64(len(raw)) / float64(len(stream))}
		mse := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			d := float64(vals[i]) - float64(dec[i])
			mse += d * d
			lo = math.Min(lo, float64(vals[i]))
			hi = math.Max(hi, float64(vals[i]))
		}
		mse /= float64(len(vals))
		if mse > 0 && hi > lo {
			e.psnr = 20*math.Log10(hi-lo) - 10*math.Log10(mse)
		} else {
			e.psnr = math.Inf(1)
		}
		results = append(results, e)
		if e.ratio > best.ratio {
			best = e
		}
	}

	// sz: absolute bound maps directly.
	{
		stream, err := sz.CompressSlice(vals, dims, sz.Params{Mode: core.BoundAbs, Bound: bound})
		var dec []float32
		if err == nil {
			dec, _, err = sz.DecompressSlice[float32](stream)
		}
		record("sz", stream, dec, err)
	}
	// zfp: absolute bound is the fixed-accuracy tolerance.
	{
		stream, err := zfp.CompressSlice(vals, dims, zfp.Params{Mode: zfp.ModeFixedAccuracy, Tolerance: bound})
		var dec []float32
		if err == nil {
			dec, _, err = zfp.DecompressSlice[float32](stream)
		}
		record("zfp", stream, dec, err)
	}
	// mgard: absolute bound maps directly, but small dims may be refused.
	{
		stream, err := mgard.CompressSlice(vals, dims, mgard.Params{Mode: core.BoundAbs, Bound: bound})
		var dec []float32
		if err == nil {
			dec, _, err = mgard.DecompressSlice[float32](stream)
		}
		record("mgard", stream, dec, err)
	}
	// fpzip: no bound; pick a precision that should be at least as good.
	{
		prec := uint(32)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
		if hi > lo && bound > 0 {
			rel := bound / (hi - lo)
			prec = uint(math.Max(8, math.Min(32, math.Ceil(-math.Log2(rel))+9)))
		}
		stream, err := fpzip.CompressSlice(vals, dims, fpzip.Params{Precision: prec})
		var dec []float32
		if err == nil {
			dec, _, err = fpzip.DecompressSlice[float32](stream)
		}
		record("fpzip", stream, dec, err)
	}

	fmt.Printf("%-8s %10s %10s\n", "comp", "ratio", "psnr")
	for _, e := range results {
		fmt.Printf("%-8s %10.3f %10.2f\n", e.name, e.ratio, e.psnr)
	}
	if best.ratio > 0 {
		fmt.Printf("best=%s\n", best.name)
	}
	return nil
}
