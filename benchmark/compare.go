package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictRegression = "REGRESSION"   // B is worse than A by more than the bound
	verdictUnresolved = "unresolved"   // the difference is inside the run-to-run spread, or the spread exceeds the bound
	verdictWithin     = "within-bound" // B is worse than A beyond the spread, but inside the bound
	verdictImproved   = "improved"     // B is better than A beyond the spread
)

// worsening is how much worse b is than a, as a share of a: positive is
// worse, negative is better, whichever direction the metric prefers.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / math.Abs(a)
	if better == higher {
		return -rel
	}
	return rel
}

// verdict applies the rule of the choosing-metrics guide: a bound exceeded is
// a regression; a difference the runs' own spread could explain is
// unresolved, never "unchanged".
func verdict(a, b reportedMetric) (worse, noise float64, v string) {
	worse = worsening(a.Value, b.Value, a.Better)
	noise = math.Max(spread(a.Values), spread(b.Values))
	switch {
	case worse > a.Bound:
		v = verdictRegression
	case noise > a.Bound || math.Abs(worse) <= noise:
		v = verdictUnresolved
	case worse > 0:
		v = verdictWithin
	default:
		v = verdictImproved
	}
	return worse, noise, v
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, how
// much worse B is, the bound and the verdict. It exits 1 when any bound is
// exceeded or either side failed a correctness check.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s  commit %s  seed %d  %d run(s)\nB: %s  commit %s  seed %d  %d run(s)\n",
		pathA, a.Commit, a.Seed, a.Runs, pathB, b.Commit, b.Seed, b.Runs)
	if a.Runs < 4 || b.Runs < 4 {
		fmt.Fprintln(stdout, "fewer than 4 runs on a side: the run-to-run spread is unknown and taken as 0 (use -runs)")
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tworse by\tbound\tspread\tverdict")
	bad := 0
	for _, spec := range workloadSpecs {
		wa, wb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\tcount\t\t0\t\t%s\n", spec.Name, wa.Failed, wb.Failed, verdictRegression)
			bad++
		}
		for _, m := range endToEndSpecs {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse, noise, v := verdict(ma, mb)
			if v == verdictRegression {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				spec.Name, m.Name, ma.Value, mb.Value, ma.Unit, 100*worse, 100*ma.Bound, 100*noise, v)
		}
	}
	_ = tw.Flush() // a failed write to standard output has nowhere to be reported
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", bad)
		return 1
	}
	return 0
}
