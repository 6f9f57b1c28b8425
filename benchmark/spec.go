package main

// The benchmark's contract: workload names, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root repeats these tables for the driver; benchmark_test.go fails when the
// two drift apart.

// defaultSeed is the seed of a run that names none (the paper's year/date).
const defaultSeed = 20210101

// runSeconds is how long one run measures (BENCHMARK.json "run_seconds").
const runSeconds = 15

// serveClients is the closed-loop client count of every serving workload. It
// is fixed, not derived from the machine: callers of pressiod each wait for a
// reply, and the sandbox has two cores that client and server share.
const serveClients = 2

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Workload names. Later issues refer to these.
const (
	wlLibCodecs   = "lib_codecs"
	wlServeLarge  = "serve_large"
	wlServeSmall  = "serve_small"
	wlServeRouted = "serve_routed"
	wlStoreRW     = "store_rw"
)

var workloadSpecs = []workloadSpec{
	{wlLibCodecs, "library calls only: codec stages do all the work, HTTP/admission/store none; exercise for codec changes, bypass for daemon, cluster and store changes"},
	{wlServeLarge, "pressiod with sz on 1 MiB fields: the edge view of a codec change, codec is ~90% of latency and body read/copy/write the rest (the path streaming rewrites)"},
	{wlServeSmall, "pressiod with noop under breaker{guard{fallback}} on 4 KiB: HTTP framing, admission, composition, pool hand-off and tracing are the latency; bypass for codec changes"},
	{wlServeRouted, "router pressiod over two noop shards on 64 KiB: the router-to-shard hop (ring, per-peer breaker/bulkhead, hedge timer, second HTTP framing) dominates; exercise for cluster changes only"},
	{wlStoreRW, "object store PUT/GET/rows/range/DELETE mix with zfp filter: journal append, group-commit fsync, segment save and checkpoints beside reads; a write-side gain that slows reads shows here"},
}

// End-to-end metric names. Every workload reports every one: "write" is the
// workload's compressing side (core.Compress, POST /compress, PUT /objects)
// and "read" its decompressing side (core.Decompress, POST /decompress, full
// GET /objects).
const (
	mSetupS    = "setup_s"
	mOpsPerS   = "ops_per_s"
	mWriteMBps = "write_mbps"
	mReadMBps  = "read_mbps"
	mWriteP50  = "write_p50_ms"
	mWriteTail = "write_tail_ms"
	mReadP50   = "read_p50_ms"
	mReadTail  = "read_tail_ms"
	mRatio     = "ratio"
	mPeakRSS   = "peak_rss_mb"
)

// Units.
const (
	unitMs       = "ms"
	unitUs       = "us"
	unitNs       = "ns"
	unitMBps     = "MB/s"
	unitPct      = "%"
	unitCount    = "count"
	unitRatio    = "ratio"
	unitPerSec   = "1/s"
	unitSeconds  = "s"
	unitMB       = "MB"
	unitPerOp    = "1/op"
	unitBytesOp  = "B/op"
	unitPValue   = "p"
	unitSpeedup  = "x"
	unitPerWrite = "1/put"
)

// The bounds are wide because the sandbox is a shared host: even stated at the
// reference host speed (hostspeed.go), back-to-back runs of unchanged code
// differ by up to 15% in a timing. A smaller effect than a bound has to be
// shown with paired, alternating runs.
var endToEndSpecs = []metricSpec{
	{mSetupS, unitSeconds, lower, 0.25},
	{mOpsPerS, unitPerSec, higher, 0.25},
	{mWriteMBps, unitMBps, higher, 0.25},
	{mReadMBps, unitMBps, higher, 0.25},
	{mWriteP50, unitMs, lower, 0.25},
	{mWriteTail, unitMs, lower, 0.25},
	{mReadP50, unitMs, lower, 0.25},
	{mReadTail, unitMs, lower, 0.25},
	{mRatio, unitRatio, higher, 0.08},
	{mPeakRSS, unitMB, lower, 0.20},
}

// layer is one per-layer metric. README.md tabulates, for each, which
// end-to-end metric it should move on which workload.
func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	specs := []metricSpec{
		layer("core.dispatch_overhead_pct", unitPct, lower),
		layer("core.dispatch_wilcoxon_p", unitPValue, higher),
		layer("core.set_options_ns", unitNs, lower),
		layer("core.clone_ns", unitNs, lower),
	}
	for _, c := range libCodecs {
		specs = append(specs,
			layer(c.short+".compress_mbps", unitMBps, higher),
			layer(c.short+".decompress_mbps", unitMBps, higher),
			layer(c.short+".compress_allocs_per_op", unitPerOp, lower),
			layer(c.short+".compress_alloc_bytes_per_op", unitBytesOp, lower),
			layer(c.short+".time_share_pct", unitPct, lower),
		)
	}
	specs = append(specs,
		layer("huffman.encode_mbps", unitMBps, higher),
		layer("huffman.decode_mbps", unitMBps, higher),
		layer("rangecoder.encode_mbps", unitMBps, higher),
		layer("rangecoder.decode_mbps", unitMBps, higher),
		layer("bitstream.write_mbps", unitMBps, higher),
		layer("bitstream.read_mbps", unitMBps, higher),
		layer("lossless.flate_compress_mbps", unitMBps, higher),
		layer("meta.many_speedup", unitSpeedup, higher),
		layer("meta.chunking_overhead_pct", unitPct, lower),
		layer("stream.write_mbps", unitMBps, higher),
		layer("stream.read_mbps", unitMBps, higher),
		layer("stream.async_speedup", unitSpeedup, higher),
		layer("resilience.guard_overhead_us", unitUs, lower),
		layer("resilience.fallback_overhead_us", unitUs, lower),
		layer("resilience.frame_encode_mbps", unitMBps, higher),
		layer("resilience.frame_decode_mbps", unitMBps, higher),
		layer("service.breaker_overhead_us", unitUs, lower),
		layer("service.compose_overhead_us", unitUs, lower),
		layer("service.admission_acquire_ns", unitNs, lower),
		layer("daemon.client_observed_us", unitUs, lower),
		layer("daemon.admission_us", unitUs, lower),
		layer("daemon.read_body_us", unitUs, lower),
		layer("daemon.pool_wait_us", unitUs, lower),
		layer("daemon.codec_us", unitUs, lower),
		layer("daemon.write_response_us", unitUs, lower),
		layer("daemon.route_us", unitUs, lower),
		layer("daemon.request_self_us", unitUs, lower),
		layer("daemon.unattributed_us", unitUs, lower),
		layer("daemon.http_overhead_us", unitUs, lower),
		layer("cluster.hop_overhead_us", unitUs, lower),
		layer("cluster.peer_do_us", unitUs, lower),
		layer("cluster.ring_replicas_ns", unitNs, lower),
		layer("cluster.hedge_share", unitRatio, lower),
		layer("cluster.retries", unitCount, lower),
		layer("cluster.failovers", unitCount, lower),
		layer("cluster.local_fallback", unitCount, lower),
		layer("cluster.shard_imbalance_pct", unitPct, lower),
		layer("store.put_ms", unitMs, lower),
		layer("store.put_filtered_ms", unitMs, lower),
		layer("store.get_ms", unitMs, lower),
		layer("store.get_rows_ms", unitMs, lower),
		layer("store.get_range_ms", unitMs, lower),
		layer("store.delete_ms", unitMs, lower),
		layer("store.checkpoint_ms", unitMs, lower),
		layer("store.replay_mbps", unitMBps, higher),
		layer("store.scrub_mbps", unitMBps, higher),
		layer("store.put_allocs_per_op", unitPerOp, lower),
		layer("store.put_alloc_bytes_per_op", unitBytesOp, lower),
		layer("store.fsyncs_per_put", unitPerWrite, lower),
		layer("store.write_amp", unitRatio, lower),
		layer("store.space_amp", unitRatio, lower),
		layer("h5lite.write_ms", unitMs, lower),
		layer("h5lite.read_ms", unitMs, lower),
		layer("h5lite.read_rows_ms", unitMs, lower),
		layer("fsx.atomic_write_ms", unitMs, lower),
		layer("trace.harness_overhead_pct", unitPct, lower),
		layer("trace.enabled_overhead_pct", unitPct, lower),
	)
	return specs
}
