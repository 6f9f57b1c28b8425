// Command pressio-bench regenerates the paper's quantitative evaluation:
//
//	-experiment fig3     the §VI overhead distribution + Wilcoxon test
//	-experiment dimorder the §V reversed-dimension-order ratio loss
//	-experiment flatten  the §V 3-D-as-1-D ratio loss
//	-experiment zfppad   the §V zfp block-padding inefficiency
//	-experiment dtype    the §V datatype-awareness advantage
//	-experiment mgardmin the §V MGARD minimum-dims failure
//	-experiment embed    the §V in-process vs external-process overhead
//	-experiment tablei   Table I (feature matrix)
//	-experiment tableii  Table II (client lines of code)
//	-experiment trace    a traced chunked-SZ run (span summary on stdout)
//	-experiment all      everything above except trace
//
// Performance over time is the benchmark's job (benchmark/README.md), not
// this binary's.
//
// The embed experiment re-executes this binary with -worker, so it measures
// a real process spawn plus two real data copies across pipes.
//
// Passing -trace=out.json enables span collection for the whole invocation
// and writes a Chrome trace_event file on exit, loadable in chrome://tracing
// or Perfetto. Combined with -experiment trace it yields the nested
// wrapper -> plugin -> per-chunk view of a parallel compression pipeline.
// Passing -cpuprofile=out.pprof captures a CPU profile of the run for
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"pressio/internal/core"
	"pressio/internal/experiments"
	"pressio/internal/launch"
	"pressio/internal/sdrbench"
	"pressio/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig3, dimorder, flatten, zfppad, dtype, mgardmin, embed, tablei, tableii, trace, or all")
		scale      = flag.Int("scale", 2, "dataset scale (1 = quick, 2 = default)")
		runs       = flag.Int("runs", 30, "matched-pair runs per configuration (fig3)")
		seed       = flag.Int64("seed", 20210101, "dataset seed")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
		cpuProfile = flag.String("cpuprofile", "", "capture a CPU profile of the run to this path (go tool pprof)")
		worker     = flag.Bool("worker", false, "serve one worker request on stdin/stdout (internal)")
		delay      = flag.Duration("startup-delay", 0, "simulated init delay in worker mode (internal)")
	)
	flag.Parse()
	if *worker {
		time.Sleep(*delay)
		if err := launch.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pressio-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pressio-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "pressio-bench: wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *traceOut != "" {
		trace.Enable()
	}
	if err := run(*experiment, *scale, *runs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pressio-bench:", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := trace.WriteChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "pressio-bench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s\n", trace.Len(), *traceOut)
	}
}

func run(experiment string, scale, runs int, seed int64) error {
	all := experiment == "all"
	did := false
	if all || experiment == "fig3" {
		did = true
		res, err := experiments.Fig3(scale, runs, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
	}
	if all || experiment == "dimorder" {
		did = true
		rows, err := experiments.DimOrder(scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.DimOrderReport(rows))
	}
	if all || experiment == "flatten" {
		did = true
		rows, err := experiments.Flatten(scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FlattenReport(rows))
	}
	if all || experiment == "zfppad" {
		did = true
		res, err := experiments.ZfpPad(scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
	}
	if all || experiment == "dtype" {
		did = true
		res, err := experiments.DTypeAware(scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
	}
	if all || experiment == "mgardmin" {
		did = true
		msg, err := experiments.MgardMin()
		if err != nil {
			return err
		}
		fmt.Printf("mgard on a 2x2 grid fails rather than compressing (as §V reports):\n  %s\n\n", msg)
	}
	if all || experiment == "embed" {
		did = true
		self, err := os.Executable()
		if err != nil {
			return err
		}
		res, err := experiments.Embed(self, []string{"-worker"}, scale, seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
	}
	if all || experiment == "tablei" {
		did = true
		fmt.Println(experiments.TableI())
	}
	if all || experiment == "tableii" {
		did = true
		root, err := experiments.RepoRoot()
		if err != nil {
			return err
		}
		rows, err := experiments.TableII(root)
		if err != nil {
			return err
		}
		fmt.Println(experiments.TableIIReport(rows))
	}
	if experiment == "trace" {
		did = true
		if err := traceDemo(scale, seed); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

// traceDemo drives the observability layer end to end: a chunked SZ
// round-trip (the chunking meta-compressor fanning sz_threadsafe workers
// out over the slowest dimension) with span collection on, then prints the
// span rollup/telemetry summary. With -trace=out.json the same spans land
// in the Chrome trace file, showing the nested
// pressio.compress -> chunking.compress_impl -> chunking.chunk ->
// sz.predict_quantize/sz.encode structure.
func traceDemo(scale int, seed int64) error {
	wasEnabled := trace.Enabled()
	trace.Enable()
	in, ok := sdrbench.Generate(sdrbench.NameScaleLetKF, scale, seed)
	if !ok {
		return fmt.Errorf("trace demo: unknown dataset %q", sdrbench.NameScaleLetKF)
	}
	comp, err := core.NewCompressor("chunking")
	if err != nil {
		return err
	}
	if err := comp.SetOptions(core.NewOptions().
		SetValue("chunking:compressor", "sz_threadsafe").
		SetValue(core.KeyRel, 1e-3)); err != nil {
		return err
	}
	compressed, err := core.Compress(comp, in)
	if err != nil {
		return err
	}
	if _, err := core.Decompress(comp, compressed, in.DType(), in.Dims()...); err != nil {
		return err
	}
	if !wasEnabled {
		// Leave collection the way we found it for embedding callers; the
		// recorded spans stay in the buffer for -trace export.
		trace.Disable()
	}
	fmt.Printf("traced chunked-SZ round-trip: %d -> %d bytes, %d spans\n\n",
		in.ByteLen(), compressed.ByteLen(), trace.Len())
	return trace.WriteSummary(os.Stdout, trace.Snapshot())
}
