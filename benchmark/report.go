package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"pressio/internal/stats"
)

// reportedMetric is one metric of result.json: the median over the runs made,
// the runs' own values, and what a timing rests on.
type reportedMetric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Better     string    `json:"better"`
	Bound      float64   `json:"bound,omitempty"`
	Samples    int       `json:"samples,omitempty"`
	Percentile string    `json:"percentile,omitempty"`
	Values     []float64 `json:"values"`
}

type workloadReport struct {
	Why       string `json:"why"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// HostFactors are what each untraced run's raw times were multiplied by
	// to state them at the reference host speed: raw = reported / factor.
	HostFactors []float64                 `json:"host_factors"`
	EndToEnd    map[string]reportedMetric `json:"end_to_end"`
	PerLayer    map[string]reportedMetric `json:"per_layer"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Seed       int64                      `json:"seed"`
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	RunSeconds float64                    `json:"run_seconds"`
	Clients    int                        `json:"serve_clients"`
	Runs       int                        `json:"runs"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type fullOptions struct {
	only            string
	seed            int64
	seconds         float64
	runs            int
	outDir, scratch string
}

// gitCommit names the commit measured, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload once in a child process of this same program, so
// each run starts with a clean peak-RSS mark and empty trace and breaker
// registries, and parses the child's detail line.
func runChild(o fullOptions, workload string, traced bool, stderr io.Writer) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", mode, "-out", o.outDir, "-scratch", o.scratch)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var res runResult
	found := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return runResult{}, fmt.Errorf("%s: parsing the child's result: %w", workload, err)
			}
			found = true
		}
	}
	if !found {
		return runResult{}, fmt.Errorf("%s (trace %s): child printed no result: %v", workload, mode, runErr)
	}
	// A child that printed a result and exited 1 failed a correctness check;
	// its result says so.
	return res, nil
}

// collect folds the runs of one kind into reported metrics.
func collect(results []runResult, specs []metricSpec) map[string]reportedMetric {
	out := make(map[string]reportedMetric, len(specs))
	for _, spec := range specs {
		rm := reportedMetric{Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound}
		for _, r := range results {
			m := r.Metrics[spec.Name]
			rm.Values = append(rm.Values, m.Value)
			rm.Samples, rm.Percentile = m.Samples, m.Percentile
		}
		rm.Value = stats.Median(rm.Values)
		out[spec.Name] = rm
	}
	return out
}

// runAll is the one command: every workload (or one), each run in its own
// child process, one at a time; a table on standard output and result.json.
func runAll(o fullOptions, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	file := resultFile{
		Seed: o.seed, Commit: gitCommit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		RunSeconds: o.seconds, Clients: serveClients, Runs: o.runs,
		Workloads: map[string]*workloadReport{},
	}
	fmt.Fprintf(stdout, "seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  %gs per run  %d closed-loop clients\n",
		file.Seed, file.Commit, file.GoVersion, file.NProc, file.GOMAXPROCS, o.seconds, serveClients)
	failed := false
	for _, spec := range workloadSpecs {
		if o.only != "" && o.only != spec.Name {
			continue
		}
		var untraced, traced []runResult
		rep := &workloadReport{Why: spec.Why, Correct: true}
		for _, tracedRun := range []bool{false, true} {
			for i := 0; i < o.runs; i++ {
				res, err := runChild(o, spec.Name, tracedRun, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 2
				}
				rep.Attempted += res.Attempted
				rep.Failed += res.Failed
				rep.Correct = rep.Correct && res.Correct
				if tracedRun {
					traced = append(traced, res)
				} else {
					untraced = append(untraced, res)
					rep.HostFactors = append(rep.HostFactors, res.HostFactor)
				}
			}
		}
		rep.EndToEnd = collect(untraced, endToEndSpecs)
		rep.PerLayer = collect(traced, perLayerSpecs)
		file.Workloads[spec.Name] = rep
		failed = failed || !rep.Correct
		printWorkload(stdout, spec.Name, rep)
	}
	path := filepath.Join(o.outDir, "result.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "\nwrote %s and %s\n", path, filepath.Join(o.outDir, "trace-<workload>.json"))
	if failed {
		fmt.Fprintln(stderr, "benchmark: correctness checks failed; see failed/attempted above")
		return 1
	}
	return 0
}

func printWorkload(w io.Writer, name string, rep *workloadReport) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d (failed_share %.6f), host factor %.3f\n", name, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), stats.Median(rep.HostFactors))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\tbetter\tbound\tsamples\tpercentile\tspread")
	for _, spec := range endToEndSpecs {
		m := rep.EndToEnd[spec.Name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\t%.2f\t%d\t%s\t%s\n",
			spec.Name, m.Value, m.Unit, m.Better, m.Bound, m.Samples, m.Percentile, spreadText(m.Values))
	}
	fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\tbetter\t\t\t\tspread")
	for _, spec := range perLayerSpecs {
		m := rep.PerLayer[spec.Name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\t\t\t\t%s\n", spec.Name, m.Value, m.Unit, m.Better, spreadText(m.Values))
	}
	_ = tw.Flush() // a failed write to standard output has nowhere to be reported
}

// spreadText is the interquartile spread of the runs, or "-" when there are
// too few to have one.
func spreadText(values []float64) string {
	if len(values) < 4 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*spread(values))
}
