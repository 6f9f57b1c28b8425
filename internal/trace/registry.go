package trace

import (
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The telemetry registry is the always-available half of the observability
// layer: process-wide named counters and latency histograms. Unlike span
// collection it has no global on/off switch — an atomic add on a registered
// counter is cheap enough for cold and warm paths alike — but the framework
// only drives the per-call compress/decompress instruments while tracing is
// enabled, preserving the zero-cost-when-off contract on the hottest path.

// Well-known registry keys. Components may mint their own names freely;
// these are the ones the framework itself maintains.
const (
	// CtrCompressCalls counts Compressor.Compress invocations (traced runs).
	CtrCompressCalls = "compress.calls"
	// CtrCompressBytesIn accumulates uncompressed input bytes.
	CtrCompressBytesIn = "compress.bytes_in"
	// CtrCompressBytesOut accumulates compressed output bytes.
	CtrCompressBytesOut = "compress.bytes_out"
	// CtrDecompressCalls counts Compressor.Decompress invocations.
	CtrDecompressCalls = "decompress.calls"
	// CtrDecompressBytesIn accumulates compressed input bytes.
	CtrDecompressBytesIn = "decompress.bytes_in"
	// CtrDecompressBytesOut accumulates decompressed output bytes.
	CtrDecompressBytesOut = "decompress.bytes_out"
	// CtrThreadSafetyMalformed counts malformed "pressio:thread_safe"
	// configuration strings that were silently coerced to "single".
	CtrThreadSafetyMalformed = "core.thread_safety.malformed"
	// CtrSpansDropped counts spans discarded because the buffer was full.
	CtrSpansDropped = "trace.spans_dropped"
	// CtrGuardRetries counts transient failures the guard meta-compressor
	// retried (one increment per re-attempt, not per call).
	CtrGuardRetries = "resilience.guard.retries"
	// CtrGuardPanics counts panics recovered at the guard boundary and
	// converted to errors.
	CtrGuardPanics = "resilience.guard.panics_recovered"
	// CtrGuardTimeouts counts guarded calls cancelled by the watchdog
	// deadline.
	CtrGuardTimeouts = "resilience.guard.timeouts"
	// CtrFrameWritten counts integrity frames emitted on compress.
	CtrFrameWritten = "resilience.frame.written"
	// CtrFrameCorrupt counts frames rejected before decompression (bad
	// magic, truncation, or CRC32-C mismatch).
	CtrFrameCorrupt = "resilience.frame.corrupt"
	// CtrFallbackEngaged counts calls served by a tier other than the first
	// in a fallback chain.
	CtrFallbackEngaged = "resilience.fallback.engaged"
	// CtrFallbackExhausted counts calls on which every fallback tier failed.
	CtrFallbackExhausted = "resilience.fallback.exhausted"
	// CtrFallbackVerifyFailed counts compressions rejected by the fallback
	// round-trip verification gate.
	CtrFallbackVerifyFailed = "resilience.fallback.verify_failed"
	// CtrFaultsInjected counts faults (errors, panics, delays, bit flips)
	// the faultinject plugin deliberately introduced.
	CtrFaultsInjected = "faultinject.faults"
	// CtrBreakerOpened counts closed→open (and half-open→open) transitions
	// of circuit breakers: the moment a failing component started being
	// protected from further traffic.
	CtrBreakerOpened = "service.breaker.opened"
	// CtrBreakerRejected counts calls rejected fast because a breaker was
	// open (no work was attempted).
	CtrBreakerRejected = "service.breaker.rejected"
	// CtrBreakerProbes counts half-open trial calls allowed through an
	// otherwise-open breaker.
	CtrBreakerProbes = "service.breaker.halfopen_probes"
	// CtrBreakerRecovered counts half-open→closed transitions: enough probes
	// succeeded to restore normal traffic.
	CtrBreakerRecovered = "service.breaker.recovered"
	// CtrAdmissionAdmitted counts requests that passed admission control
	// (immediately or after queueing).
	CtrAdmissionAdmitted = "service.admission.admitted"
	// CtrAdmissionQueued counts requests that had to wait in the admission
	// queue before being admitted or shed.
	CtrAdmissionQueued = "service.admission.queued"
	// CtrAdmissionShed counts requests rejected by admission control: queue
	// full, deadline would expire while queued, context cancelled while
	// waiting, or a request larger than the whole budget.
	CtrAdmissionShed = "service.admission.shed"
	// CtrDaemonRequests counts HTTP requests the pressiod daemon accepted
	// for processing (after admission).
	CtrDaemonRequests = "service.daemon.requests"
	// CtrDaemonDrained counts in-flight requests completed during a graceful
	// drain.
	CtrDaemonDrained = "service.daemon.drained"
	// CtrClusterRequests counts operations the cluster router accepted for
	// routing (one per buffer, before any peer attempts).
	CtrClusterRequests = "cluster.requests"
	// CtrClusterRetries counts per-peer transient retransmissions (one
	// increment per re-attempt against the same peer).
	CtrClusterRetries = "cluster.retries"
	// CtrClusterFailovers counts placements abandoned for the next replica:
	// the preferred peer was down, its breaker open, or its call failed.
	CtrClusterFailovers = "cluster.failovers"
	// CtrClusterHedges counts hedge requests launched because the primary
	// exceeded its p99-derived hedge delay.
	CtrClusterHedges = "cluster.hedges"
	// CtrClusterHedgeWins counts hedged operations won by the hedge (the
	// primary was cancelled or finished late).
	CtrClusterHedgeWins = "cluster.hedge_wins"
	// CtrClusterLocalFallback counts operations served by the router's local
	// compressor because every replica was unreachable.
	CtrClusterLocalFallback = "cluster.local_fallback"
	// CtrClusterPeerDown counts up→down health transitions observed by the
	// cluster health checker.
	CtrClusterPeerDown = "cluster.peer_down"
	// CtrClusterPeerUp counts down→up health transitions (initial discovery
	// of a live peer included).
	CtrClusterPeerUp = "cluster.peer_up"
	// HistCompress is the per-call plugin compress latency histogram.
	HistCompress = "compress.latency"
	// HistDecompress is the per-call plugin decompress latency histogram.
	HistDecompress = "decompress.latency"
	// HistQueueWait is the admission-queue wait-time histogram (time between
	// arrival and admission for requests that had to queue).
	HistQueueWait = "service.admission.queue_wait"
	// HistDaemonRequest is the end-to-end pressiod data-plane request
	// latency histogram, observed for every request regardless of the
	// global tracing switch (it is the serving SLO metric).
	HistDaemonRequest = "service.daemon.latency"
	// HistClusterPeer is the per-attempt router→peer round-trip latency
	// histogram (successful attempts only; it feeds nothing — the hedge
	// delay uses the router's own windowed per-peer tracker).
	HistClusterPeer = "cluster.peer.latency"
	// CtrStorePuts counts acknowledged object-store PUT operations.
	CtrStorePuts = "store.puts"
	// CtrStorePutBytes accumulates uncompressed bytes accepted by PUTs.
	CtrStorePutBytes = "store.put.bytes"
	// CtrStoreGets counts object-store reads (full, row, and byte range).
	CtrStoreGets = "store.gets"
	// CtrStoreGetBytes accumulates uncompressed bytes served by reads.
	CtrStoreGetBytes = "store.get.bytes"
	// CtrStoreDeletes counts acknowledged object-store DELETE operations.
	CtrStoreDeletes = "store.deletes"
	// CtrStoreJournalRecords counts records appended to the write-ahead
	// journal (puts, deletes, and quarantine markers).
	CtrStoreJournalRecords = "store.journal.records"
	// CtrStoreJournalBytes accumulates journal bytes written.
	CtrStoreJournalBytes = "store.journal.bytes"
	// CtrStoreJournalFsyncs counts journal commit fsyncs, one per
	// acknowledged mutation: the store has one writer.
	CtrStoreJournalFsyncs = "store.journal.fsyncs"
	// CtrStoreReplayed counts journal records re-applied during recovery.
	CtrStoreReplayed = "store.recovery.replayed"
	// CtrStoreReplaySkipped counts journal records skipped during recovery
	// because a manifest checkpoint already covers their LSN.
	CtrStoreReplaySkipped = "store.recovery.skipped"
	// CtrStoreTornTails counts torn journal tails truncated at recovery.
	CtrStoreTornTails = "store.journal.torn_tails"
	// CtrStoreTornBytes accumulates torn-tail bytes quarantined before
	// truncation (never silently discarded).
	CtrStoreTornBytes = "store.journal.torn_bytes"
	// CtrStoreSegmentsRebuilt counts segment containers rebuilt from
	// journaled chunk payloads during recovery.
	CtrStoreSegmentsRebuilt = "store.recovery.segments_rebuilt"
	// CtrStoreCheckpoints counts manifest checkpoints written.
	CtrStoreCheckpoints = "store.checkpoints"
	// CtrStoreGCSegments counts obsolete segment files removed by
	// checkpoint garbage collection.
	CtrStoreGCSegments = "store.gc.segments"
	// CtrStoreScrubPasses counts completed scrub passes.
	CtrStoreScrubPasses = "store.scrub.passes"
	// CtrStoreScrubChunks counts chunk checksums verified by the scrubber.
	CtrStoreScrubChunks = "store.scrub.chunks"
	// CtrStoreChunksQuarantined counts chunks quarantined after checksum
	// mismatch (by scrub, recovery, or fsck).
	CtrStoreChunksQuarantined = "store.chunks.quarantined"
	// CtrStoreChunksRepaired counts chunks restored from journaled payloads.
	CtrStoreChunksRepaired = "store.chunks.repaired"
	// HistStorePut is the end-to-end store PUT latency histogram (compress,
	// journal+fsync, segment publish).
	HistStorePut = "store.put.latency"
	// HistStoreGet is the store read latency histogram.
	HistStoreGet = "store.get.latency"
)

// PluginErrorKey names the per-plugin error counter ("plugin.sz.errors").
func PluginErrorKey(prefix string) string { return "plugin." + prefix + ".errors" }

// FallbackTierKey names the per-tier served-call counter
// ("resilience.fallback.tier.sz").
func FallbackTierKey(prefix string) string { return "resilience.fallback.tier." + prefix }

// BulkheadShedKey names the per-bulkhead shed counter
// ("service.bulkhead.compress.shed"), so one compartment's overload is
// distinguishable from another's.
func BulkheadShedKey(name string) string { return "service.bulkhead." + name + ".shed" }

// BreakerScopeKey names the per-scope breaker open-transition counter
// ("service.breaker.scope.sz.opened").
func BreakerScopeKey(scope string) string { return "service.breaker.scope." + scope + ".opened" }

// ClusterPeerKey names a per-peer cluster counter
// ("cluster.peer.127.0.0.1:8123.requests"); suffix is one of "requests",
// "failures", or "hedge_wins".
func ClusterPeerKey(peer, suffix string) string { return "cluster.peer." + peer + "." + suffix }

// Counter is a monotonically adjustable int64 telemetry cell.
type Counter struct {
	v atomic.Int64
}

// Add adjusts the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two latency buckets: bucket i holds
// observations with nanoseconds in [2^(i-1), 2^i) (bucket 0 holds 0ns).
const histBuckets = 40

// Histogram is a fixed-bucket exponential latency histogram, safe for
// concurrent observation.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64
	// Sum is the total of all observed durations.
	Sum time.Duration
	// Max is the largest observed duration.
	Max time.Duration
	// Buckets[i] counts observations with nanoseconds in [2^(i-1), 2^i).
	Buckets [histBuckets]int64
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(int64(s.Sum) / s.Count)
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1) derived
// from the bucket boundaries — coarse (factor-of-two) but monotone. The last
// bucket is unbounded (it absorbs every observation of 2^38 ns ≈ 4.6 min and
// beyond), so a quantile landing there reports Max rather than the
// meaningless 2^39 boundary.
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 || p <= 0 {
		return 0
	}
	target := int64(p * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= target {
			if i == histBuckets-1 {
				return s.Max
			}
			return time.Duration(int64(1) << uint(i))
		}
	}
	return s.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNs.Load())
	s.Max = time.Duration(h.maxNs.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

var (
	regMu      sync.RWMutex
	counters   = map[string]*Counter{}
	histograms = map[string]*Histogram{}
)

// GetCounter returns the named counter, creating it on first use. The
// returned pointer is stable until the next ResetTelemetry, so hot paths can
// resolve once and Add repeatedly — but a pointer held across a reset is
// detached from the registry (see ResetTelemetry).
func GetCounter(name string) *Counter {
	regMu.RLock()
	c := counters[name]
	regMu.RUnlock()
	if c != nil {
		return c
	}
	regMu.Lock()
	defer regMu.Unlock()
	if c = counters[name]; c == nil {
		c = &Counter{}
		counters[name] = c
	}
	return c
}

// CounterAdd adjusts the named counter by n, creating it on first use.
func CounterAdd(name string, n int64) { GetCounter(name).Add(n) }

// CounterValue returns the named counter's value (0 when never touched).
func CounterValue(name string) int64 {
	regMu.RLock()
	c := counters[name]
	regMu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// GetHistogram returns the named histogram, creating it on first use.
func GetHistogram(name string) *Histogram {
	regMu.RLock()
	h := histograms[name]
	regMu.RUnlock()
	if h != nil {
		return h
	}
	regMu.Lock()
	defer regMu.Unlock()
	if h = histograms[name]; h == nil {
		h = &Histogram{}
		histograms[name] = h
	}
	return h
}

// ObserveDuration records d into the named histogram.
func ObserveDuration(name string, d time.Duration) { GetHistogram(name).Observe(d) }

// Counters returns a sorted-key snapshot of every registered counter.
func Counters() map[string]int64 {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make(map[string]int64, len(counters))
	for k, c := range counters {
		out[k] = c.Value()
	}
	return out
}

// Histograms returns a snapshot of every registered histogram.
func Histograms() map[string]HistogramSnapshot {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(histograms))
	for k, h := range histograms {
		out[k] = h.snapshot()
	}
	return out
}

// CounterNames returns the registered counter names, sorted.
func CounterNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Sorted(maps.Keys(counters))
}

// ResetTelemetry clears all counters and histograms (for tests and between
// benchmark phases).
//
// The retained-pointer contract: a *Counter or *Histogram obtained from
// GetCounter/GetHistogram BEFORE a reset remains usable — Add/Observe never
// panic — but it is detached: the registry now holds a fresh zeroed cell
// under the same name, so increments through the stale pointer are invisible
// to CounterValue/Counters/Histograms and to every exporter. Code that must
// survive phase resets (the benchmark resets between stages) must
// either re-resolve the pointer after each reset or use the name-keyed
// helpers (CounterAdd/ObserveDuration), which resolve on every call.
func ResetTelemetry() {
	regMu.Lock()
	defer regMu.Unlock()
	counters = map[string]*Counter{}
	histograms = map[string]*Histogram{}
}
