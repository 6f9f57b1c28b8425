package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pressio/internal/service"
	"pressio/internal/trace"
)

// workload is one named traffic mix. The runner owns timing, clients and
// recording; a workload owns its inputs, its servers and its checks.
type workload interface {
	// setup generates the inputs from the seed, starts whatever serves them
	// and warms it up, so that the first measured op finds caches filled and
	// lazy initialisation done. It is the cost setup_s reports.
	setup(seed int64) error
	// clients is the number of closed-loop clients (goroutines, connections).
	clients() int
	// cycle is the number of consecutive ops of one client that form a unit
	// the run must not cut: 1, or the calls of one lib_codecs pass.
	cycle() int
	// op runs client c's i-th operation and checks its output. rt is nil in
	// the untraced run; every trace method is nil-safe.
	op(c, i int, rt *trace.RequestTrace) opResult
	// ratio is uncompressed over stored bytes on the seed's inputs; it does
	// not depend on how many ops a run completes, so it repeats exactly.
	ratio() float64
	// group is how many consecutive samples of one kind make one latency
	// sample (see rollupOf).
	group() int
	// teardown stops servers, runs the checks that need the run to be over
	// and reports them as (attempted, failed).
	teardown() (attempted, failed int, err error)
}

func newWorkload(name, scratch string) (workload, error) {
	switch name {
	case wlLibCodecs:
		return &libWorkload{}, nil
	case wlServeLarge:
		return newServeLarge(), nil
	case wlServeSmall:
		return newServeSmall(), nil
	case wlServeRouted:
		return newServeRouted(), nil
	case wlStoreRW:
		return &storeWorkload{scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// resetProcessState clears the process-global registries a daemon writes to,
// so each set-up starts from what a fresh pressiod would see.
func resetProcessState() {
	service.ResetShared()
	trace.ResetTelemetry()
	trace.Reset()
	trace.Disable()
}

// setupProbes is how often the host is probed on each side of a set-up.
const setupProbes = 8

// setupTimed runs one set-up and returns how long it took, at the reference
// host speed: the host is probed just before and just after.
func setupTimed(w workload, seed int64) (time.Duration, error) {
	hp, err := newHostProbe(0)
	if err != nil {
		return 0, err
	}
	resetProcessState()
	for i := 0; i < setupProbes; i++ {
		hp.once()
	}
	start := time.Now()
	err = w.setup(seed)
	d := time.Since(start)
	for i := 0; i < setupProbes; i++ {
		hp.once()
	}
	return time.Duration(float64(d) * hp.factor()), err
}

// phase is one stretch of closed-loop load.
type phase struct {
	recs []*recorder
	wall time.Duration
	// host is the factor that states the phase's times at the reference host
	// speed (see hostspeed.go).
	host float64
}

// runPhase drives every client in a closed loop until the deadline: a client
// sends its next op only after the previous one completed, so a slower system
// receives less load. firstOp continues the clients' op streams where an
// earlier phase stopped. tr is nil for an untraced phase. Client 0 also probes
// the host's speed between its ops.
func runPhase(w workload, d time.Duration, firstOp []int, capacity int, tr *tracer) (phase, error) {
	hp, err := newHostProbe(d)
	if err != nil {
		return phase{}, err
	}
	n := w.clients()
	recs := make([]*recorder, n)
	for c := range recs {
		recs[c] = newRecorder(capacity)
	}
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			i := firstOp[c]
			for {
				if i%w.cycle() == 0 && !time.Now().Before(deadline) {
					break
				}
				if c == 0 {
					hp.tick()
				}
				rt := tr.begin(c)
				res := w.op(c, i, rt)
				tr.end(c, rt)
				rec.record(res)
				i++
			}
			firstOp[c] = i
		}(c)
	}
	wg.Wait()
	return phase{recs: recs, wall: time.Since(start), host: hp.factor()}, nil
}

// runOps drives every client through n untimed ops: the warm-up a set-up ends
// with. It draws from the same per-client op streams the measured phase
// continues, so the measured ops are the same on every run of a seed.
func runOps(w workload, n int) (attempted, failed int) {
	recs := make([]*recorder, w.clients())
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder(n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				recs[c].record(w.op(c, i, nil))
			}
		}(c)
	}
	wg.Wait()
	attempted, failed, _ = tally(recs)
	return attempted, failed
}
