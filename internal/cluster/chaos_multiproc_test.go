// Multi-process chaos proof: three real pressiod shard processes, a router
// fanning CompressMany traffic across them, one shard SIGKILLed mid-load —
// and every chunk must still complete with a verified round-trip, zero lost,
// zero duplicated, zero cross-wired, with no goroutines leaked by the
// router. Run by scripts/check.sh and CI under the race detector.
package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pressio/internal/cluster"
	"pressio/internal/service"
	"pressio/internal/trace"
)

// buildPressiod compiles the real daemon binary once per test invocation.
func buildPressiod(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH; cannot build pressiod")
	}
	bin := filepath.Join(t.TempDir(), "pressiod")
	cmd := exec.Command("go", "build", "-o", bin, "pressio/cmd/pressiod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build pressiod: %v\n%s", err, out)
	}
	return bin
}

// shardProc is one out-of-process pressiod shard.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
}

// startShardProc launches pressiod on an ephemeral port and parses the bound
// address from its "pressiod: listening on ADDR" stderr line (the same
// contract the smoke scripts rely on).
func startShardProc(t *testing.T, bin string) *shardProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-compressor", "flate",
		"-concurrency", "4",
		"-lame-duck", "1ms",
		"-drain-timeout", "5s",
		"-log-level", "error",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pressiod: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
			// Keep draining so the child never blocks on a full stderr pipe.
		}
	}()
	select {
	case addr := <-addrCh:
		return &shardProc{cmd: cmd, addr: addr}
	case <-time.After(15 * time.Second):
		t.Fatal("shard never reported its listen address")
		return nil
	}
}

func TestChaosClusterShardSIGKILLMidLoad(t *testing.T) {
	bin := buildPressiod(t)
	shards := []*shardProc{
		startShardProc(t, bin),
		startShardProc(t, bin),
		startShardProc(t, bin),
	}
	peers := make([]string, len(shards))
	for i, s := range shards {
		peers[i] = s.addr
	}

	service.ResetShared()
	trace.ResetTelemetry()
	baselineGoroutines := runtime.NumGoroutine()
	r, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:      peers,
		Replicas:   2, // every key survives any single shard death
		HedgeFloor: 25 * time.Millisecond,
		Peer:       cluster.PeerConfig{Attempts: 3, Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	hc := cluster.NewHealthChecker(r, 100*time.Millisecond)
	if err := hc.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hc.Stop(context.Background()) })
	if got := r.Ring().UpCount(); got != 3 {
		t.Fatalf("fleet not healthy before chaos: %d/3 up", got)
	}

	// Concurrent CompressMany load: unique payloads so a lost, duplicated,
	// or cross-wired chunk cannot escape the final equality sweep.
	chunks := float32Chunks(240, 1024)
	type waveResult struct {
		compressed [][]byte
		err        error
	}
	waveCh := make(chan waveResult, 1)
	go func() {
		compressed, err := r.CompressMany(context.Background(), chunks)
		waveCh <- waveResult{compressed, err}
	}()

	// SIGKILL one shard mid-load: wait until the wave is demonstrably in
	// flight (some requests routed, many still to go), then kill without
	// ceremony — no drain, no lame duck, in-flight requests die with it.
	deadline := time.Now().Add(10 * time.Second)
	for trace.CounterValue(trace.CtrClusterRequests) < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if trace.CounterValue(trace.CtrClusterRequests) < 20 {
		t.Fatal("load never ramped; cannot kill mid-load")
	}
	victim := shards[0]
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitErr := victim.cmd.Wait()
	if waitErr == nil {
		t.Fatal("SIGKILLed shard exited cleanly; the kill was not a kill")
	}

	wave := <-waveCh
	if wave.err != nil {
		t.Fatalf("chunks lost to the shard kill: %v", wave.err)
	}
	for i, c := range wave.compressed {
		if c == nil {
			t.Fatalf("chunk %d lost (nil result, nil error)", i)
		}
	}

	// The health checker must re-resolve placement: the victim goes down on
	// the ring, so post-kill traffic skips it without burning an attempt.
	ringDeadline := time.Now().Add(5 * time.Second)
	for r.Ring().Up(victim.addr) && time.Now().Before(ringDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if r.Ring().Up(victim.addr) {
		t.Fatal("health checker never marked the SIGKILLed shard down")
	}

	// Verified round-trips over the survivor fleet: exact recovery at the
	// original index proves zero lost and zero duplicated chunks.
	back := make([]cluster.Chunk, len(chunks))
	for i := range chunks {
		back[i] = cluster.Chunk{DType: chunks[i].DType, Dims: chunks[i].Dims, Payload: wave.compressed[i]}
	}
	restored, err := r.DecompressMany(context.Background(), back)
	if err != nil {
		t.Fatalf("decompression wave failed on the survivor fleet: %v", err)
	}
	for i := range chunks {
		if !bytes.Equal(restored[i], chunks[i].Payload) {
			t.Fatalf("chunk %d did not round-trip after the kill", i)
		}
	}

	t.Logf("chaos: %d requests, %d retries, %d failovers, %d hedges, %d peer-down transitions",
		trace.CounterValue(trace.CtrClusterRequests),
		trace.CounterValue(trace.CtrClusterRetries),
		trace.CounterValue(trace.CtrClusterFailovers),
		trace.CounterValue(trace.CtrClusterHedges),
		trace.CounterValue(trace.CtrClusterPeerDown))

	// Goroutine-leak assertion: after stopping the health checker and
	// releasing pooled connections, the process converges to its pre-router
	// baseline — hedged losers and killed-peer requests all joined.
	_ = hc.Stop(context.Background())
	_ = r.Stop(context.Background())
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baselineGoroutines+5 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baselineGoroutines+5 {
		t.Fatalf("goroutines leaked through the chaos run: %d baseline, %d after", baselineGoroutines, got)
	}
}
