// Integration tests: the router over real in-process pressiod shards, the
// health checker driving placement, and a deterministic network-fault
// campaign through the faultinject HTTP round tripper. The external test
// package breaks the cluster→daemon import cycle.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"
	"time"

	"pressio/internal/cluster"
	"pressio/internal/core"
	"pressio/internal/daemon"
	"pressio/internal/faultinject"
	"pressio/internal/service"
	"pressio/internal/trace"

	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/resilience"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

// startShard boots a real pressiod on an ephemeral port with a lossless
// compressor, so router round-trips can assert byte equality.
func startShard(t *testing.T, compressor string) *daemon.Daemon {
	t.Helper()
	d, err := daemon.New(daemon.Config{
		Addr:         "127.0.0.1:0",
		Compressor:   compressor,
		Concurrency:  2,
		MemBudget:    1 << 28,
		QueueDepth:   32,
		ReqTimeout:   10 * time.Second,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// Double-drain is safe (the lifecycle runtime's second Stop is a no-op),
	// so tests that kill a shard mid-run need no bookkeeping here.
	t.Cleanup(func() { _ = d.Drain() })
	return d
}

// float32Chunks builds n unique compressible float32 buffers; uniqueness
// (the index is baked into every chunk) makes lost or cross-wired results
// detectable.
func float32Chunks(n, valsPer int) []cluster.Chunk {
	chunks := make([]cluster.Chunk, n)
	for i := range chunks {
		buf := make([]byte, valsPer*4)
		for j := 0; j < valsPer; j++ {
			v := float32(i)*1000 + float32(math.Sin(float64(j)/10))
			binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(v))
		}
		chunks[i] = cluster.Chunk{DType: core.DTypeFloat32, Dims: []uint64{uint64(valsPer)}, Payload: buf}
	}
	return chunks
}

func newShardRouter(t *testing.T, cfg cluster.RouterConfig) *cluster.Router {
	t.Helper()
	service.ResetShared()
	trace.ResetTelemetry()
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Stop(context.Background()) })
	return r
}

// roundTripAll compresses every chunk through the router and decompresses
// the results back, asserting exact recovery at the original index — the
// zero-lost, zero-duplicated, zero-cross-wired invariant.
func roundTripAll(t *testing.T, r *cluster.Router, chunks []cluster.Chunk) {
	t.Helper()
	ctx := context.Background()
	compressed, err := r.CompressMany(ctx, chunks)
	if err != nil {
		t.Fatalf("CompressMany: %v", err)
	}
	back := make([]cluster.Chunk, len(chunks))
	for i := range chunks {
		if compressed[i] == nil {
			t.Fatalf("chunk %d lost in compression", i)
		}
		back[i] = cluster.Chunk{DType: chunks[i].DType, Dims: chunks[i].Dims, Payload: compressed[i]}
	}
	restored, err := r.DecompressMany(ctx, back)
	if err != nil {
		t.Fatalf("DecompressMany: %v", err)
	}
	for i := range chunks {
		if !bytes.Equal(restored[i], chunks[i].Payload) {
			t.Fatalf("chunk %d did not round-trip (lost, duplicated, or cross-wired)", i)
		}
	}
}

func TestRouterOverRealShardsRoundTrips(t *testing.T) {
	shards := []*daemon.Daemon{
		startShard(t, "flate"),
		startShard(t, "flate"),
		startShard(t, "flate"),
	}
	peers := make([]string, len(shards))
	for i, s := range shards {
		peers[i] = s.Addr()
	}
	r := newShardRouter(t, cluster.RouterConfig{
		Peers:    peers,
		Replicas: 2,
		Peer:     cluster.PeerConfig{Attempts: 2, Timeout: 10 * time.Second},
	})
	roundTripAll(t, r, float32Chunks(24, 512))
	if trace.CounterValue(trace.CtrClusterLocalFallback) != 0 {
		t.Fatal("healthy fleet degraded to local")
	}
}

// TestRouterDecompressHintMatchesSingleNode: the router answers a decompress
// whose dims and dtype do not match the stream exactly as a single node does.
// Neither zfp's stream, which records its shape, nor noop's, which records
// none, fills another declared shape, so a single node answers 400 and the
// router must refuse it as bad input. Neither is a peer fault.
func TestRouterDecompressHintMatchesSingleNode(t *testing.T) {
	src := float32Chunks(1, 1024)[0]
	for _, compressor := range []string{"zfp", "noop"} {
		shard := startShard(t, compressor)
		r := newShardRouter(t, cluster.RouterConfig{Peers: []string{shard.Addr()}, Peer: cluster.PeerConfig{Attempts: 1}})
		ctx := context.Background()
		stream, err := r.Compress(ctx, src.DType, src.Dims, src.Payload)
		if err != nil {
			t.Fatalf("%s: compress: %v", compressor, err)
		}
		for _, hint := range []struct {
			dtype core.DType
			dims  []uint64
		}{{core.DTypeFloat64, []uint64{4096}}, {core.DTypeFloat32, []uint64{7}}} {
			u := fmt.Sprintf("http://%s/decompress?dims=%d&dtype=%s", shard.Addr(), hint.dims[0], hint.dtype)
			resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			single, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s%v: single node answered %d, want 400: %v %s", compressor, hint.dtype, hint.dims, resp.StatusCode, err, single)
			}
			if _, err := r.Decompress(ctx, hint.dtype, hint.dims, stream); !core.IsBadInput(err) {
				t.Fatalf("%s %s%v: router: err = %v, want bad input", compressor, hint.dtype, hint.dims, err)
			}
		}
		if n := trace.CounterValue(trace.ClusterPeerKey(shard.Addr(), "failures")); n != 0 {
			t.Fatalf("%s: %d peer failures recorded for replies a single node serves", compressor, n)
		}
	}
}

func TestHealthCheckerDrivesRingAndRouterSurvivesShardDeath(t *testing.T) {
	shards := []*daemon.Daemon{
		startShard(t, "flate"),
		startShard(t, "flate"),
		startShard(t, "flate"),
	}
	peers := make([]string, len(shards))
	for i, s := range shards {
		peers[i] = s.Addr()
	}
	r := newShardRouter(t, cluster.RouterConfig{
		Peers:    peers,
		Replicas: 2,
		Peer:     cluster.PeerConfig{Attempts: 2, Timeout: 5 * time.Second},
	})
	transitions := make(chan string, 16)
	hc := cluster.NewHealthChecker(r, 50*time.Millisecond)
	hc.OnChange = func(peer string, up bool) {
		transitions <- fmt.Sprintf("%s up=%v", peer, up)
	}
	if err := hc.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hc.Stop(context.Background()) })
	if !hc.Ready() {
		t.Fatal("health checker not ready after first sweep")
	}
	if got := r.Ring().UpCount(); got != 3 {
		t.Fatalf("first sweep classified %d/3 peers up", got)
	}

	// Kill one shard; the checker must notice and flip the ring.
	dead := peers[0]
	if err := shards[0].Drain(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Ring().Up(dead) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r.Ring().Up(dead) {
		t.Fatal("health checker never marked the dead shard down")
	}
	if trace.CounterValue(trace.CtrClusterPeerDown) == 0 {
		t.Fatal("peer-down transition not counted")
	}
	select {
	case ev := <-transitions:
		if ev != dead+" up=false" {
			t.Fatalf("unexpected transition %q", ev)
		}
	default:
		t.Fatal("OnChange not invoked for the down transition")
	}

	// Traffic keeps flowing: every key had R=2 replicas, so one dead shard
	// of three leaves every replica set with a live member.
	roundTripAll(t, r, float32Chunks(24, 512))
	if r.Ring().UpCount() != 2 {
		t.Fatalf("ring up-count %d after one death", r.Ring().UpCount())
	}
}

// TestChaosClusterNetworkFaultCampaign drives the router through a
// deterministic storm of injected network faults — refused connections,
// added latency, truncated response bodies — and requires every chunk to
// round-trip anyway: retries absorb refused dials, hedges and failover
// absorb latency, and truncated bodies are detected and retried.
func TestChaosClusterNetworkFaultCampaign(t *testing.T) {
	shards := []*daemon.Daemon{
		startShard(t, "flate"),
		startShard(t, "flate"),
		startShard(t, "flate"),
	}
	peers := make([]string, len(shards))
	for i, s := range shards {
		peers[i] = s.Addr()
	}
	rt, err := faultinject.NewRoundTripper(nil, faultinject.HTTPRates{
		Seed:     7,
		Refuse:   0.15,
		Delay:    0.10,
		DelayMS:  5,
		Truncate: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newShardRouter(t, cluster.RouterConfig{
		Peers:      peers,
		Replicas:   2,
		HedgeFloor: 50 * time.Millisecond,
		Peer: cluster.PeerConfig{
			Transport: rt,
			Attempts:  3,
			Timeout:   10 * time.Second,
			// A generous breaker: the campaign tests retry/failover, and a
			// 15% refuse rate must not trip circuits mid-run.
			Breaker: service.BreakerConfig{Window: 64, Failures: 48, Cooldown: 100 * time.Millisecond, Probes: 4},
		},
	})

	before := runtime.NumGoroutine()
	roundTripAll(t, r, float32Chunks(48, 256))
	// Release pooled keep-alive connections before counting: their read
	// loops are idle-pool machinery, not leaked request goroutines.
	_ = r.Stop(context.Background())

	injected := trace.CounterValue(faultinject.CtrHTTPRefused) +
		trace.CounterValue(faultinject.CtrHTTPDelays) +
		trace.CounterValue(faultinject.CtrHTTPTruncated)
	if injected == 0 {
		t.Fatal("campaign injected no faults; the test proved nothing")
	}
	if trace.CounterValue(trace.CtrClusterRetries) == 0 && trace.CounterValue(trace.CtrClusterFailovers) == 0 {
		t.Fatal("faults were injected but neither retries nor failovers fired")
	}
	t.Logf("campaign: %d faults injected, %d retries, %d failovers, %d hedges",
		injected,
		trace.CounterValue(trace.CtrClusterRetries),
		trace.CounterValue(trace.CtrClusterFailovers),
		trace.CounterValue(trace.CtrClusterHedges))

	// The storm must not leak request goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+5 {
		t.Fatalf("goroutines leaked under fault campaign: %d before, %d after", before, got)
	}
}
