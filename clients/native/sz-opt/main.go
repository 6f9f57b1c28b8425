// Command sz-opt is a *native* configuration optimizer bound to the sz
// compressor alone, at feature parity with the generic optimizer
// (the opt meta-compressor, internal/opt): fixed-ratio search, PSNR-floor search,
// and a bound sweep report — but every piece (bisection, ratio evaluation,
// quality metrics) is written directly against the sz API and works for no
// other compressor. clients/native/zfp-opt is the near-identical zfp copy.
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
	"pressio/internal/sz"
)

func main() {
	var (
		input    = flag.String("input", "", "flat binary float32 input")
		dimsFlag = flag.String("dims", "", "dims, slowest first")
		ratio    = flag.Float64("target-ratio", 0, "target compression ratio (0 = off)")
		psnr     = flag.Float64("target-psnr", 0, "PSNR floor in dB (0 = off)")
		sweep    = flag.Bool("sweep", false, "report a bound sweep instead of searching")
		tol      = flag.Float64("tolerance", 0.1, "acceptable relative deviation")
		maxIters = flag.Int("max-iters", 32, "bisection iterations")
	)
	flag.Parse()
	if err := run(*input, *dimsFlag, *ratio, *psnr, *sweep, *tol, *maxIters); err != nil {
		fmt.Fprintln(os.Stderr, "sz-opt:", err)
		os.Exit(1)
	}
}

type evaluation struct {
	bound float64
	ratio float64
	psnr  float64
	maxE  float64
}

func run(input, dimsFlag string, targetRatio, targetPSNR float64, sweep bool, tol float64, maxIters int) error {
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
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	rng := hi - lo
	if rng <= 0 {
		rng = 1
	}

	evaluate := func(bound float64) (evaluation, error) {
		stream, err := sz.CompressSlice(vals, dims, sz.Params{Mode: core.BoundAbs, Bound: bound})
		if err != nil {
			return evaluation{}, err
		}
		dec, _, err := sz.DecompressSlice[float32](stream)
		if err != nil {
			return evaluation{}, err
		}
		ev := evaluation{bound: bound, ratio: float64(len(raw)) / float64(len(stream))}
		mse := 0.0
		for i := range vals {
			d := math.Abs(float64(vals[i]) - float64(dec[i]))
			if d > ev.maxE {
				ev.maxE = d
			}
			mse += d * d
		}
		mse /= float64(len(vals))
		if mse > 0 {
			ev.psnr = 20*math.Log10(rng) - 10*math.Log10(mse)
		} else {
			ev.psnr = math.Inf(1)
		}
		return ev, nil
	}

	loB, hiB := math.Log(rng*1e-9), math.Log(rng*0.5)
	switch {
	case sweep:
		fmt.Printf("%14s %10s %10s %12s\n", "bound", "ratio", "psnr", "max_abs_err")
		for _, exp := range []float64{-7, -6, -5, -4, -3, -2} {
			ev, err := evaluate(rng * math.Pow(10, exp))
			if err != nil {
				return err
			}
			fmt.Printf("%14g %10.3f %10.2f %12.4g\n", ev.bound, ev.ratio, ev.psnr, ev.maxE)
		}
		return nil
	case targetRatio > 0:
		evLo, err := evaluate(math.Exp(loB))
		if err != nil {
			return err
		}
		evHi, err := evaluate(math.Exp(hiB))
		if err != nil {
			return err
		}
		if evLo.ratio > targetRatio || evHi.ratio < targetRatio {
			return fmt.Errorf("target ratio %.1f outside achievable range [%.2f, %.2f]",
				targetRatio, evLo.ratio, evHi.ratio)
		}
		var best evaluation
		for i := 0; i < maxIters; i++ {
			mid := (loB + hiB) / 2
			ev, err := evaluate(math.Exp(mid))
			if err != nil {
				return err
			}
			best = ev
			if math.Abs(ev.ratio-targetRatio) <= tol*targetRatio {
				break
			}
			if ev.ratio < targetRatio {
				loB = mid
			} else {
				hiB = mid
			}
		}
		fmt.Printf("bound=%g\nratio=%f\npsnr=%f\nmax_abs_err=%g\n", best.bound, best.ratio, best.psnr, best.maxE)
		return nil
	case targetPSNR > 0:
		evLo, err := evaluate(math.Exp(loB))
		if err != nil {
			return err
		}
		if evLo.psnr < targetPSNR {
			return fmt.Errorf("PSNR %.1f below floor %.1f even at the smallest bound", evLo.psnr, targetPSNR)
		}
		best := evLo
		for i := 0; i < maxIters && hiB-loB > 0.05; i++ {
			mid := (loB + hiB) / 2
			ev, err := evaluate(math.Exp(mid))
			if err != nil {
				return err
			}
			if ev.psnr >= targetPSNR {
				best = ev
				loB = mid
			} else {
				hiB = mid
			}
		}
		fmt.Printf("bound=%g\nratio=%f\npsnr=%f\nmax_abs_err=%g\n", best.bound, best.ratio, best.psnr, best.maxE)
		return nil
	default:
		return fmt.Errorf("specify -target-ratio, -target-psnr, or -sweep")
	}
}
