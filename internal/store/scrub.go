package store

import (
	"fmt"
	"maps"
	"os"
	"sort"
	"sync"
	"time"

	"pressio/internal/fsx"
	"pressio/internal/stats"
	"pressio/internal/trace"
)

// The scrubber is the store's defense against bit rot: corruption that
// arrives without a crash, after the data was durably written. It re-reads
// every segment from disk (never from the read cache), recomputes each
// chunk's CRC32-C against the durable chunk table, and quarantines exactly
// the chunks that disagree — the object's intact chunks stay readable
// through range reads, and the corrupt segment file is copied (not moved:
// intact chunks are still being served from it) into quarantine/ as
// evidence.

// ChunkRef names one chunk of one object.
type ChunkRef struct {
	Object  string `json:"object"`
	Segment string `json:"segment"`
	Chunk   int    `json:"chunk"`
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Objects and ChunksChecked count what the pass covered (chunks already
	// quarantined are skipped, not re-counted).
	Objects       int `json:"objects"`
	ChunksChecked int `json:"chunks_checked"`
	// Corrupt lists the chunks whose on-disk payloads failed their CRC.
	Corrupt []ChunkRef `json:"corrupt,omitempty"`
	// Quarantined counts chunks newly quarantined by this pass.
	Quarantined int `json:"quarantined"`
	// Unreadable lists objects whose segment could not be opened at all
	// (every chunk is quarantined in that case).
	Unreadable []string `json:"unreadable,omitempty"`
}

// ScrubOnce runs one full-store scrub pass synchronously. Corrupt chunks
// are quarantined through the journal (so the verdict survives a crash) and
// the affected segment is copied into quarantine/ before the pass moves on.
// The pass works lock-free on a snapshot of the live set; the verdict on a
// version replaced or deleted since (its segment may be gone) is dropped.
func (s *Store) ScrubOnce() (ScrubReport, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ScrubReport{}, ErrClosed
	}
	snap := make(map[string]*object, len(s.objects))
	for name, o := range s.objects {
		snap[name] = &object{meta: o.meta, quarantined: maps.Clone(o.quarantined)}
	}
	s.mu.RUnlock()
	return s.scrub(verify(s.dir, snap))
}

// scrub acts on one pass's verdicts.
func (s *Store) scrub(verdicts []verdict) (ScrubReport, error) {
	var rep ScrubReport
	for _, v := range verdicts {
		meta, bad, before := v.o.meta, v.bad, rep
		if v.err != nil {
			// The container itself is unreadable (or structurally wrong):
			// every not-yet-quarantined chunk is suspect.
			rep.Unreadable = append(rep.Unreadable, v.name)
			for i := range meta.Chunks {
				if !v.o.quarantined[i] {
					bad = append(bad, i)
				}
			}
		} else {
			checked := len(meta.Chunks) - len(v.o.quarantined)
			rep.ChunksChecked += checked
			trace.CounterAdd(trace.CtrStoreScrubChunks, int64(checked))
		}
		for _, i := range bad {
			rep.Corrupt = append(rep.Corrupt, ChunkRef{Object: v.name, Segment: meta.Segment, Chunk: i})
		}
		// Liveness is checked under the writer lock with the quarantine
		// record, or here when there is nothing to quarantine.
		n, err := s.quarantineChunks(meta, bad)
		if err != nil {
			return rep, err
		}
		if n == 0 && (len(bad) > 0 || !s.live(meta)) {
			rep = before
			continue
		}
		rep.Quarantined += n
		rep.Objects++
	}
	trace.CounterAdd(trace.CtrStoreScrubPasses, 1)
	return rep, nil
}

// quarantineChunks journals and applies a chunk quarantine for the version of
// an object that meta describes (scrub and recovery call this when checksums
// fail), then preserves a copy of the segment as evidence, and returns how
// many chunks it quarantined. The copy is best-effort second to the
// journaled record: losing the evidence is acceptable, serving corrupt
// bytes as intact is not.
//
// The record names the object only, so it is written only while that
// version is live: a verdict on a version replaced or deleted since it was
// read is stale and dropped. Records apply in append order, so replay meets
// the same version this check saw.
func (s *Store) quarantineChunks(meta ObjectMeta, chunks []int) (int, error) {
	if len(chunks) == 0 {
		return 0, nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.live(meta) {
		return 0, nil
	}
	sort.Ints(chunks)
	if _, err := s.mutateLocked(record{op: opQuarantine, meta: recordMeta{Name: meta.Name, Chunks: chunks}}); err != nil {
		return 0, fmt.Errorf("store: quarantining chunks %v of %q: %w", chunks, meta.Name, err)
	}
	trace.CounterAdd(trace.CtrStoreChunksQuarantined, int64(len(chunks)))
	if raw, err := os.ReadFile(s.segmentPath(meta.Segment)); err == nil {
		if dst, err := s.quarantinePath(meta.Segment + ".corrupt"); err == nil {
			_ = fsx.AtomicWriteFile(dst, raw, 0o644)
		}
	}
	return len(chunks), nil
}

// Scrubber runs ScrubOnce on a jittered schedule until stopped. The jitter
// (a deterministic ±25% from a splitmix64 stream) keeps a fleet of stores
// from scrubbing — and hammering their disks — in phase.
type Scrubber struct {
	s        *Store
	interval time.Duration
	seed     uint64

	mu     sync.Mutex
	stop   chan struct{}
	done   chan struct{}
	last   ScrubReport
	lastOK bool
}

// NewScrubber builds a scrubber; interval <= 0 disables it (Start becomes a
// no-op), which is how the daemon expresses "no background scrub".
func NewScrubber(s *Store, interval time.Duration, seed uint64) *Scrubber {
	return &Scrubber{s: s, interval: interval, seed: seed}
}

// Start launches the background loop.
func (sc *Scrubber) Start() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.interval <= 0 || sc.stop != nil {
		return
	}
	sc.stop = make(chan struct{})
	sc.done = make(chan struct{})
	go sc.loop(sc.stop, sc.done)
}

// Stop halts the loop and waits for an in-progress pass to finish.
func (sc *Scrubber) Stop() {
	sc.mu.Lock()
	stop, done := sc.stop, sc.done
	sc.stop, sc.done = nil, nil
	sc.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (sc *Scrubber) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	rng := sc.seed
	for pass := 0; ; pass++ {
		d := jitter(sc.interval, &rng)
		timer := time.NewTimer(d)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		rep, err := sc.s.ScrubOnce()
		if err != nil {
			// ErrClosed means the store shut down under us; anything else is
			// retried next tick.
			continue
		}
		sc.mu.Lock()
		sc.last, sc.lastOK = rep, true
		sc.mu.Unlock()
	}
}

// jitter spreads interval to interval*[0.75, 1.25) using a splitmix64 step.
func jitter(interval time.Duration, state *uint64) time.Duration {
	frac := float64(stats.SplitMix64(state)>>11) / float64(1<<53) // [0, 1)
	return time.Duration(float64(interval) * (0.75 + frac/2))
}
