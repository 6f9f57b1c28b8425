package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pressio/internal/core"
	"pressio/internal/stats"
)

// opKind classifies an operation for the latency tables. Every workload has a
// write side and a read side; the store adds three more.
type opKind uint8

const (
	opWrite  opKind = iota // core.Compress, POST /compress, PUT /objects
	opRead                 // core.Decompress, POST /decompress, full GET /objects
	opRows                 // GET /objects?rows= (one chunk)
	opRange                // GET /objects with a Range header
	opDelete               // DELETE /objects
	numOpKinds
)

// opResult is what one operation reports back to the closed loop.
type opResult struct {
	kind opKind
	// dur is the client-observed time of the call itself; the correctness
	// check that follows it is not timed.
	dur time.Duration
	// bytes is the user (uncompressed) payload the operation moved.
	bytes int
	ok    bool
}

// sample is one completed operation: its kind, how long the call took and the
// user bytes it moved.
type sample struct {
	dur   time.Duration
	bytes int32
	kind  opKind
}

// recorder holds one client's samples in completion order. The slice is
// allocated once, before the measured phase, so recording does not allocate
// inside it.
type recorder struct {
	samples   []sample
	attempted int
	failed    int
}

func newRecorder(capacity int) *recorder {
	return &recorder{samples: make([]sample, 0, capacity)}
}

func (r *recorder) record(res opResult) {
	r.attempted++
	if !res.ok {
		// A failed operation misses every latency: it counts against
		// attempted and contributes no sample.
		r.failed++
		return
	}
	r.samples = append(r.samples, sample{dur: res.dur, bytes: int32(res.bytes), kind: res.kind})
}

// tally sums the clients' attempted, failed and completed ops.
func tally(recs []*recorder) (attempted, failed, completed int) {
	for _, r := range recs {
		attempted += r.attempted
		failed += r.failed
		completed += len(r.samples)
	}
	return attempted, failed, completed
}

// rollup sums the samples of one kind over every client.
type rollup struct {
	ops   int
	bytes int64
	dur   time.Duration
	// ms holds one latency per sample or, for group > 1, per group
	// consecutive samples of a client added up: lib_codecs turns its per-call
	// timings into per-pass timings that way (one pass compresses every field
	// with every codec, as a simulation's checkpoint does).
	ms []float64
}

func rollupOf(recs []*recorder, kind opKind, group int) rollup {
	var r rollup
	for _, rec := range recs {
		var sum time.Duration
		n := 0
		for _, s := range rec.samples {
			if s.kind != kind {
				continue
			}
			r.ops++
			r.bytes += int64(s.bytes)
			r.dur += s.dur
			sum += s.dur
			if n++; n == group {
				r.ms = append(r.ms, float64(sum)/float64(time.Millisecond))
				sum, n = 0, 0
			}
		}
	}
	return r
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

func meanUs(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(time.Microsecond) / float64(n)
}

// tailQuantile is the percentile write_tail_ms and read_tail_ms report on each
// workload: the highest of p50/p90/p95/p99 that still has at least ten
// samples beyond it for the rarer of the two op kinds when a run is
// runSeconds long on a machine half as fast as the sandbox. It is fixed per
// workload, not chosen per run, so two runs always compare the same
// percentile. serve_routed would support p99 by that rule, but its p99 sits
// where the host's bursts land (28% run-to-run spread against 7% for p95).
// lib_codecs completes some fifty passes a run: it has no tail to report, and
// its tail metrics repeat its medians.
var tailQuantile = map[string]float64{
	wlLibCodecs:   0.50,
	wlServeLarge:  0.90,
	wlServeSmall:  0.99,
	wlServeRouted: 0.95,
	wlStoreRW:     0.90,
}

func quantileName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(n=4) gives
// (exclusive method) so the number matches the driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := stats.Median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// allocDelta runs fn n times and reports mallocs and allocated bytes per call.
func allocDelta(n int, fn func() error) (allocs, allocBytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// withinAbs reports whether every sample of got is within bound of want. A
// codec that computes in wider arithmetic and rounds its result to float32
// cannot land closer than the float32 spacing, and scale-letkf's values
// (3.7e4 to 1e5, spacing 0.004 to 0.008) are coarser than absBound, so the
// check allows bound plus one ulp of the original.
func withinAbs(want, got []float32, bound float64) bool {
	if len(want) != len(got) {
		return false
	}
	for i, w := range want {
		d := math.Abs(float64(w) - float64(got[i]))
		if d <= bound {
			continue
		}
		a := float32(math.Abs(float64(w)))
		ulp := float64(math.Nextafter32(a, float32(math.Inf(1))) - a)
		if !(d <= bound+ulp) {
			return false
		}
	}
	return true
}

// float32View reinterprets little-endian sample bytes without copying.
func float32View(b []byte, dims ...uint64) ([]float32, error) {
	d, err := core.NewMove(core.DTypeFloat32, b, dims...)
	if err != nil {
		return nil, err
	}
	return d.Float32s(), nil
}
