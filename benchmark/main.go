// Command benchmark is the repository's performance benchmark: five named
// workloads that drive the system as its users do (the library through
// core.Compress/core.Decompress, pressiod over loopback HTTP), end-to-end
// metrics measured with tracing off, and a traced run that attributes time to
// layers. README.md in this directory explains the workloads and metrics;
// BENCHMARK.json at the repository root is the contract with the driver.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload store_rw   one workload
//	go run ./benchmark -compare A.json B.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: one run of one workload in this process, the
// result as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs; changes nothing else")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	traceMode := fs.String("trace", "", "0: one untraced run in this process; 1: one traced run; empty: both, each in a child process")
	runs := fs.Int("runs", 1, "repeat every run this many times and report medians with their spread")
	outDir := fs.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
	scratch := fs.String("scratch", "", "directory for store files (default: <out>/tmp)")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *scratch == "" {
		*scratch = *outDir + "/tmp"
	}
	if *workload != "" && !knownWorkload(*workload) {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	if *traceMode == "" {
		return runAll(fullOptions{
			only: *workload, seed: *seed, seconds: *seconds, runs: *runs, outDir: *outDir, scratch: *scratch,
		}, stdout, stderr)
	}
	if *workload == "" || (*traceMode != "0" && *traceMode != "1") {
		fmt.Fprintln(stderr, "-trace 0|1 needs -workload")
		return 2
	}
	return runOne(runOptions{
		workload: *workload, seed: *seed, seconds: *seconds, outDir: *outDir, scratch: *scratch,
	}, *traceMode == "1", stdout, stderr)
}

func knownWorkload(name string) bool {
	for _, spec := range workloadSpecs {
		if spec.Name == name {
			return true
		}
	}
	return false
}

// detailPrefix marks the line that carries sample counts and percentiles; the
// parent of a child run reads it, the driver ignores it.
const detailPrefix = "#detail "

// runOne is the driver's mode: one run, its result as the last line of
// standard output with exactly the keys correct, attempted, failed, metrics.
// The exit code is 1 when a correctness check failed and 2 when the run
// itself could not be made; only the former prints a result.
func runOne(o runOptions, traced bool, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	produce := runUntraced
	if traced {
		produce = runTraced
	}
	res, err := produce(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	detail, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
	for name, m := range res.Metrics {
		res.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	res.HostFactor = 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed their checks\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}
