package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pressio/internal/stats"
)

// metricValue is one reported number. Samples and Percentile say what a
// timing rests on; they go to result.json and the table, not to the driver's
// result line.
type metricValue struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile string  `json:"percentile,omitempty"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// HostFactor is what the untraced run's raw times were multiplied by to
	// state them at the reference host speed (hostspeed.go); it goes to
	// result.json, not to the driver's result line.
	HostFactor float64 `json:"host_factor,omitempty"`
}

// setupRepeats is how many times an untraced run sets the workload up; it
// reports the median, because one set-up is short and its time noisy.
const setupRepeats = 3

// capacityFor sizes a client's preallocated sample slice: serve_small, the
// fastest workload, completes about 11 000 ops per second and client on the
// sandbox.
func capacityFor(d time.Duration) int { return int(d.Seconds()*20000) + 1024 }

type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	// outDir receives trace-<workload>.json; scratch holds store directories.
	outDir, scratch string
	// quick is the smoke tests' mode: one set-up, and layer probes at a
	// fraction of their iteration counts.
	quick bool
}

// runUntraced produces the end-to-end metrics: set-up (several times), one
// measured closed-loop phase with tracing off, then the workload's checks.
func runUntraced(o runOptions) (runResult, error) {
	w, err := newWorkload(o.workload, o.scratch)
	if err != nil {
		return runResult{}, err
	}
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		d, err := setupTimed(w, o.seed)
		if err != nil {
			_, _, _ = w.teardown() // the set-up error is the one to report
			return runResult{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, d.Seconds())
		if i < repeats-1 {
			if _, _, err := w.teardown(); err != nil {
				return runResult{}, fmt.Errorf("%s teardown: %w", o.workload, err)
			}
		}
	}
	d := time.Duration(o.seconds * float64(time.Second))
	ph, phaseErr := runPhase(w, d, make([]int, w.clients()), capacityFor(d), nil)
	checks, checksFailed, err := w.teardown()
	if phaseErr != nil {
		return runResult{}, phaseErr
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s teardown: %w", o.workload, err)
	}
	attempted, failed, completed := tally(ph.recs)
	rss, err := peakRSSMB()
	if err != nil {
		return runResult{}, err
	}
	write, read := rollupOf(ph.recs, opWrite, w.group()), rollupOf(ph.recs, opRead, w.group())
	if len(write.ms) == 0 || len(read.ms) == 0 {
		return runResult{}, fmt.Errorf("%s: no completed write or read op in %.1fs", o.workload, o.seconds)
	}
	// Times are stated at the reference host speed: multiplied by the
	// phase's host factor; rates are divided by it.
	tail := tailQuantile[o.workload]
	timing := func(r rollup, q float64) metricValue {
		return metricValue{Value: stats.Quantile(r.ms, q) * ph.host, Unit: unitMs, Samples: len(r.ms), Percentile: quantileName(q)}
	}
	res := runResult{
		Attempted:  attempted + checks,
		Failed:     failed + checksFailed,
		HostFactor: ph.host,
		Metrics: map[string]metricValue{
			mSetupS:    {Value: stats.Median(setups), Unit: unitSeconds, Samples: len(setups), Percentile: "p50"},
			mOpsPerS:   {Value: float64(completed) / ph.wall.Seconds() / ph.host, Unit: unitPerSec, Samples: completed},
			mWriteMBps: {Value: mbps(write.bytes, write.dur) / ph.host, Unit: unitMBps, Samples: write.ops},
			mReadMBps:  {Value: mbps(read.bytes, read.dur) / ph.host, Unit: unitMBps, Samples: read.ops},
			mWriteP50:  timing(write, 0.5),
			mWriteTail: timing(write, tail),
			mReadP50:   timing(read, 0.5),
			mReadTail:  timing(read, tail),
			mRatio:     {Value: w.ratio(), Unit: unitRatio},
			mPeakRSS:   {Value: rss, Unit: unitMB},
		},
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceSourcer is a workload whose daemons retain span trees for its ops.
type traceSourcer interface {
	traceSources() (front string, shards []string)
	httpClient() *loadClient
}

// runTraced produces the per-layer metrics: the workload's own phases with the
// benchmark's spans around every op, then the layer probes, all written as
// one Chrome trace file.
func runTraced(o runOptions) (runResult, error) {
	w, err := newWorkload(o.workload, o.scratch)
	if err != nil {
		return runResult{}, err
	}
	if _, err := setupTimed(w, o.seed); err != nil {
		_, _, _ = w.teardown() // the set-up error is the one to report
		return runResult{}, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	tr := newTracer(w.clients())
	out, attempted, failed, phaseErr := tracedPhases(w, o, tr)
	checks, checksFailed, err := w.teardown()
	if phaseErr != nil {
		return runResult{}, fmt.Errorf("%s: %w", o.workload, phaseErr)
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s teardown: %w", o.workload, err)
	}
	p := &prober{tr: tr, seed: o.seed, scratch: o.scratch, out: out, quick: o.quick}
	if err := p.run(); err != nil {
		return runResult{}, fmt.Errorf("layer probes: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return runResult{}, err
	}
	if err := tr.writeChrome(filepath.Join(o.outDir, "trace-"+o.workload+".json"), 2000); err != nil {
		return runResult{}, fmt.Errorf("writing the trace file: %w", err)
	}

	res := runResult{
		Attempted: attempted + checks,
		Failed:    failed + checksFailed,
		Metrics:   map[string]metricValue{},
	}
	for _, spec := range perLayerSpecs {
		v, ok := out[spec.Name]
		if !ok {
			return runResult{}, fmt.Errorf("per-layer metric %s was not measured", spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedPhases runs the set-up workload for a fifth of the run time untraced
// and a fifth with a span around every op (the ratio of the two is the
// harness's own cost), merges in the daemons' span trees and attributes the
// client-observed time to layers.
func tracedPhases(w workload, o runOptions, tr *tracer) (out map[string]float64, attempted, failed int, err error) {
	d := time.Duration(o.seconds / 5 * float64(time.Second))
	next := make([]int, w.clients())
	plain, err := runPhase(w, d, next, capacityFor(d), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	traced, err := runPhase(w, d, next, capacityFor(d), tr)
	if err != nil {
		return nil, 0, 0, err
	}
	if src, ok := w.(traceSourcer); ok {
		front, shards := src.traceSources()
		if err := tr.mergeDaemonSpans(src.httpClient().http, front, shards, tracezDepth); err != nil {
			return nil, 0, 0, fmt.Errorf("reading /tracez: %w", err)
		}
	}
	a1, f1, n1 := tally(plain.recs)
	a2, f2, n2 := tally(traced.recs)
	if n1 == 0 || n2 == 0 {
		return nil, 0, 0, fmt.Errorf("a traced-run phase completed no op")
	}
	// Wall time per op of each phase, at the reference host speed.
	perOp := func(ph phase, n int) float64 { return ph.wall.Seconds() * ph.host / float64(n) }
	a := tr.attribute()
	codec := a.self["daemon.compress"] + a.self["daemon.decompress"]
	out = map[string]float64{
		"trace.harness_overhead_pct": (perOp(traced, n2)/perOp(plain, n1) - 1) * 100,
		"daemon.client_observed_us":  meanUs(a.observed, a.ops),
		"daemon.admission_us":        meanUs(a.self["daemon.admission"], a.ops),
		"daemon.read_body_us":        meanUs(a.self["daemon.read_body"], a.ops),
		"daemon.pool_wait_us":        meanUs(a.self["daemon.pool_wait"], a.ops),
		"daemon.codec_us":            meanUs(codec, a.ops),
		"daemon.write_response_us":   meanUs(a.self["daemon.write_response"], a.ops),
		"daemon.route_us":            meanUs(a.self[spanDaemonRoute], a.ops),
		"daemon.request_self_us":     meanUs(a.self[spanDaemonRequest], a.ops),
		"daemon.unattributed_us":     meanUs(a.rootSelf, a.ops),
	}
	return out, a1 + a2, f1 + f2, nil
}
