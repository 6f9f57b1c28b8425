package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pressio/internal/fsx"
	"pressio/internal/h5lite"
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
func (s *Store) ScrubOnce() (ScrubReport, error) {
	var rep ScrubReport

	// Snapshot the live set; the pass then works lock-free against
	// immutable metas, tolerating objects that vanish mid-pass.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return rep, ErrClosed
	}
	type target struct {
		meta        ObjectMeta
		quarantined []int
	}
	targets := make([]target, 0, len(s.objects))
	for _, o := range s.objects {
		targets = append(targets, target{meta: o.meta, quarantined: sortedIndices(o.quarantined)})
	}
	s.mu.RUnlock()
	sort.Slice(targets, func(i, k int) bool { return targets[i].meta.Name < targets[k].meta.Name })

	for _, tg := range targets {
		skip := map[int]bool{}
		for _, idx := range tg.quarantined {
			skip[idx] = true
		}
		path := s.segmentPath(tg.meta.Segment)
		f, err := h5lite.Open(path)
		var raw []h5lite.RawChunk
		if err == nil {
			raw, err = f.RawChunks(datasetName)
		}
		if err != nil || len(raw) != len(tg.meta.Chunks) {
			// The container itself is unreadable (or structurally wrong):
			// every not-yet-quarantined chunk is suspect.
			rep.Unreadable = append(rep.Unreadable, tg.meta.Name)
			var all []int
			for i := range tg.meta.Chunks {
				if !skip[i] {
					all = append(all, i)
					rep.Corrupt = append(rep.Corrupt, ChunkRef{Object: tg.meta.Name, Segment: tg.meta.Segment, Chunk: i})
				}
			}
			if err := s.condemnChunks(tg.meta, all); err != nil {
				return rep, err
			}
			rep.Objects++
			continue
		}
		var bad []int
		for i, ch := range raw {
			if skip[i] {
				continue
			}
			rep.ChunksChecked++
			trace.CounterAdd(trace.CtrStoreScrubChunks, 1)
			if ch.Rows != tg.meta.Chunks[i].Rows ||
				uint64(len(ch.Payload)) != tg.meta.Chunks[i].Length ||
				crc32.Checksum(ch.Payload, castagnoli) != tg.meta.Chunks[i].CRC {
				bad = append(bad, i)
				rep.Corrupt = append(rep.Corrupt, ChunkRef{Object: tg.meta.Name, Segment: tg.meta.Segment, Chunk: i})
			}
		}
		if err := s.condemnChunks(tg.meta, bad); err != nil {
			return rep, err
		}
		rep.Objects++
	}
	trace.CounterAdd(trace.CtrStoreScrubPasses, 1)
	rep.Quarantined = len(rep.Corrupt)
	return rep, nil
}

// condemnChunks quarantines the listed chunks of one object and preserves a
// copy of the segment as evidence. The copy is best-effort second to the
// journaled quarantine record: losing the evidence is acceptable, serving
// corrupt bytes as intact is not.
func (s *Store) condemnChunks(meta ObjectMeta, chunks []int) error {
	if len(chunks) == 0 {
		return nil
	}
	if err := s.quarantineChunks(meta.Name, chunks); err != nil {
		return fmt.Errorf("store: quarantining chunks %v of %q: %w", chunks, meta.Name, err)
	}
	if raw, err := os.ReadFile(s.segmentPath(meta.Segment)); err == nil {
		_ = fsx.AtomicWriteFile(evidencePath(s.dir, meta.Segment), raw, 0o644)
	}
	return nil
}

// evidencePath picks a free quarantine name for a corrupt segment copy.
func evidencePath(dir, segment string) string {
	for i := 0; ; i++ {
		name := segment + ".corrupt"
		if i > 0 {
			name = fmt.Sprintf("%s.corrupt.%d", segment, i)
		}
		p := filepath.Join(dir, quarantineDir, name)
		if _, err := os.Lstat(p); os.IsNotExist(err) {
			return p
		}
	}
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

// LastReport returns the most recent completed pass (ok=false before the
// first one).
func (sc *Scrubber) LastReport() (ScrubReport, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.last, sc.lastOK
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
