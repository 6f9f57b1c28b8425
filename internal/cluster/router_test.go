package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/service"
	"pressio/internal/trace"
)

// fakeShard is an httptest stand-in for a pressiod peer: it answers the data
// plane with tag+body so tests can tell which shard served, and counts hits.
type fakeShard struct {
	ts   *httptest.Server
	tag  string
	hits atomic.Int64
	// delay slows every response (hedging tests).
	delay time.Duration
	// status, when nonzero, short-circuits with that code.
	status atomic.Int64
	// lastTraceparent/lastRequestID record propagation headers.
	lastTraceparent atomic.Value
	lastRequestID   atomic.Value
}

func newFakeShard(t *testing.T, tag string, delay time.Duration) *fakeShard {
	t.Helper()
	s := &fakeShard{tag: tag, delay: delay}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		s.lastTraceparent.Store(r.Header.Get("Traceparent"))
		s.lastRequestID.Store(r.Header.Get("X-Pressio-Request-Id"))
		if s.delay > 0 {
			select {
			case <-time.After(s.delay):
			case <-r.Context().Done():
				return
			}
		}
		if code := s.status.Load(); code != 0 {
			if code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
				w.Header().Set("X-Pressio-Error", "shed")
			}
			http.Error(w, "injected", int(code))
			return
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(r.Body)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(append([]byte(s.tag+":"), body.Bytes()...))
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *fakeShard) addr() string { return s.ts.Listener.Addr().String() }

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	service.ResetShared()
	trace.ResetTelemetry()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Stop(context.Background()) })
	return r
}

// payloadFor finds a payload whose primary replica is the given peer, so
// tests can aim traffic at a specific shard without faking the ring.
func payloadFor(t *testing.T, r *Router, primary string) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := []byte(fmt.Sprintf("aimed-payload-%d", i))
		if r.ring.Replicas(p, r.cfg.Replicas)[0] == primary {
			return p
		}
	}
	t.Fatal("no payload hashes to the requested primary")
	return nil
}

func TestRouterPlacementIsSticky(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	c := newFakeShard(t, "c", 0)
	r := newTestRouter(t, RouterConfig{Peers: []string{a.addr(), b.addr(), c.addr()}})

	payload := []byte("sticky-payload")
	first, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("same key served by different shards: %q vs %q", again, first)
		}
	}
	if got := trace.CounterValue(trace.CtrClusterRequests); got != 6 {
		t.Fatalf("cluster.requests = %d, want 6", got)
	}
	if trace.CounterValue(trace.CtrClusterFailovers) != 0 {
		t.Fatal("healthy fleet recorded failovers")
	}
}

func TestRouterFailsOverToReplicaWhenPrimaryDies(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	c := newFakeShard(t, "c", 0)
	r := newTestRouter(t, RouterConfig{
		Peers: []string{a.addr(), b.addr(), c.addr()},
		Peer:  PeerConfig{Attempts: 2, Timeout: 2 * time.Second},
	})
	payload := payloadFor(t, r, a.addr())
	a.ts.Close() // the primary is gone; its port now refuses connections

	out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil {
		t.Fatalf("failover did not save the request: %v", err)
	}
	if bytes.HasPrefix(out, []byte("a:")) {
		t.Fatalf("dead shard answered: %q", out)
	}
	if trace.CounterValue(trace.CtrClusterFailovers) == 0 {
		t.Fatal("failover not counted")
	}
	if trace.CounterValue(trace.CtrClusterRetries) == 0 {
		t.Fatal("in-peer retry not counted before failover")
	}
}

func TestRouterPeerShedFailsOverLikeTransportFault(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	r := newTestRouter(t, RouterConfig{
		Peers: []string{a.addr(), b.addr()},
		Peer:  PeerConfig{Attempts: 1, Timeout: 2 * time.Second},
	})
	payload := payloadFor(t, r, a.addr())
	a.status.Store(http.StatusServiceUnavailable)

	out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil {
		t.Fatalf("peer shed should fail over: %v", err)
	}
	if !bytes.HasPrefix(out, []byte("b:")) {
		t.Fatalf("expected the replica to serve, got %q", out)
	}
}

func TestRouterDoesNotFailOver4xx(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	r := newTestRouter(t, RouterConfig{
		Peers: []string{a.addr(), b.addr()},
		Peer:  PeerConfig{Attempts: 2, Timeout: 2 * time.Second},
	})
	payload := payloadFor(t, r, a.addr())
	a.status.Store(http.StatusBadRequest)
	bHitsBefore := b.hits.Load()

	_, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if !errors.Is(err, core.ErrInvalidOption) {
		t.Fatalf("4xx should classify as invalid option, got %v", err)
	}
	if core.IsTransient(err) || errors.Is(err, core.ErrShed) {
		t.Fatalf("4xx must not be failoverable: %v", err)
	}
	if a.hits.Load() != 1 {
		t.Fatalf("4xx was retried: %d attempts", a.hits.Load())
	}
	if b.hits.Load() != bHitsBefore {
		t.Fatal("bad request was failed over to the replica")
	}
}

func TestRouterHedgesSlowPrimary(t *testing.T) {
	slow := newFakeShard(t, "slow", 400*time.Millisecond)
	fast := newFakeShard(t, "fast", 0)
	r := newTestRouter(t, RouterConfig{
		Peers:      []string{slow.addr(), fast.addr()},
		HedgeFloor: 20 * time.Millisecond,
		Peer:       PeerConfig{Attempts: 1, Timeout: 5 * time.Second},
	})
	payload := payloadFor(t, r, slow.addr())

	begin := time.Now()
	out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("fast:")) {
		t.Fatalf("hedge did not win: served by %q", out)
	}
	if elapsed := time.Since(begin); elapsed >= 400*time.Millisecond {
		t.Fatalf("hedging saved no latency: %v", elapsed)
	}
	if trace.CounterValue(trace.CtrClusterHedges) == 0 {
		t.Fatal("hedge launch not counted")
	}
	if trace.CounterValue(trace.CtrClusterHedgeWins) == 0 {
		t.Fatal("hedge win not counted")
	}
	if trace.CounterValue(trace.CtrClusterFailovers) != 0 {
		t.Fatal("a hedge win is not a failover")
	}
}

// TestRouterHedgeWinsDoNotTripPrimary: every hedge win cancels the slow
// primary's call. Those cancellations are the router's doing, not the
// primary's, so a slow-but-healthy primary must stay in rotation.
func TestRouterHedgeWinsDoNotTripPrimary(t *testing.T) {
	slow := newFakeShard(t, "slow", 200*time.Millisecond)
	fast := newFakeShard(t, "fast", 0)
	r := newTestRouter(t, RouterConfig{
		Peers:      []string{slow.addr(), fast.addr()},
		HedgeFloor: 5 * time.Millisecond,
		Peer:       PeerConfig{Attempts: 1, Timeout: 5 * time.Second},
	})
	payload := payloadFor(t, r, slow.addr())
	for i := 0; i < 16; i++ {
		out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
		if err != nil || !bytes.HasPrefix(out, []byte("fast:")) {
			t.Fatalf("call %d: hedge did not win: %q, %v", i, out, err)
		}
	}
	if !r.clients[slow.addr()].Available() {
		t.Fatal("16 hedge wins tripped the primary's breaker")
	}
}

func TestRouterHedgedCallsDoNotLeakGoroutines(t *testing.T) {
	slow := newFakeShard(t, "slow", 200*time.Millisecond)
	fast := newFakeShard(t, "fast", 0)
	r := newTestRouter(t, RouterConfig{
		Peers:      []string{slow.addr(), fast.addr()},
		HedgeFloor: 5 * time.Millisecond,
		Peer:       PeerConfig{Attempts: 1, Timeout: 5 * time.Second},
	})
	payload := payloadFor(t, r, slow.addr())

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload); err != nil {
			t.Fatal(err)
		}
	}
	// hedged() joins every launched goroutine before returning, so after
	// releasing the idle connection pool the count converges back to the
	// baseline.
	_ = r.Stop(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+3 {
		t.Fatalf("goroutines leaked across hedged calls: %d before, %d after", before, got)
	}
}

func TestRouterBreakerOpenSkipsPrimary(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	r := newTestRouter(t, RouterConfig{
		Peers: []string{a.addr(), b.addr()},
		Peer: PeerConfig{
			Attempts: 1,
			Timeout:  time.Second,
			Breaker:  service.BreakerConfig{Window: 4, Failures: 2, Cooldown: time.Minute, Probes: 1},
		},
	})
	payload := payloadFor(t, r, a.addr())
	a.ts.Close()

	// Trip the primary's breaker through real failures.
	for i := 0; i < 3; i++ {
		if _, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload); err != nil {
			t.Fatalf("replica should absorb while breaker warms: %v", err)
		}
	}
	if r.clients[a.addr()].Available() {
		t.Fatal("primary breaker should be open after repeated refused connections")
	}
	// With the breaker open the primary is skipped outright: no dial, no
	// retry budget burned, still counted as a failover.
	failoversBefore := trace.CounterValue(trace.CtrClusterFailovers)
	out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil || !bytes.HasPrefix(out, []byte("b:")) {
		t.Fatalf("breaker-open skip failed: %q, %v", out, err)
	}
	if trace.CounterValue(trace.CtrClusterFailovers) != failoversBefore+1 {
		t.Fatal("breaker-open skip not counted as failover")
	}
}

func TestRouterShedsTypedWhenFleetUnreachableAndNoLocal(t *testing.T) {
	dead := newFakeShard(t, "dead", 0)
	addr := dead.addr()
	dead.ts.Close()
	r := newTestRouter(t, RouterConfig{
		Peers: []string{addr},
		Peer:  PeerConfig{Attempts: 1, Timeout: time.Second},
	})

	_, err := r.Compress(context.Background(), core.DTypeByte, []uint64{4}, []byte("data"))
	if !errors.Is(err, core.ErrShed) {
		t.Fatalf("fleet-unreachable error must wear the typed shed shape: %v", err)
	}
	// Peers are optimistically up until a health checker classifies them;
	// once it marks the fleet down, a no-local router stops reporting ready.
	r.ring.SetUp(addr, false)
	if r.Ready() {
		t.Fatal("router with no local path and no live peers must not report ready")
	}
}

func TestRouterDegradesToLocal(t *testing.T) {
	dead := newFakeShard(t, "dead", 0)
	addr := dead.addr()
	dead.ts.Close()
	var localCalls atomic.Int64
	r := newTestRouter(t, RouterConfig{
		Peers: []string{addr},
		Peer:  PeerConfig{Attempts: 1, Timeout: time.Second},
		Local: func(_ context.Context, op string, _ core.DType, _ []uint64, body []byte) ([]byte, error) {
			localCalls.Add(1)
			return append([]byte("local-"+op+":"), body...), nil
		},
	})

	out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{4}, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("local-compress:data")) {
		t.Fatalf("local degradation returned %q", out)
	}
	if localCalls.Load() != 1 || trace.CounterValue(trace.CtrClusterLocalFallback) != 1 {
		t.Fatalf("local fallback accounting wrong: calls=%d counter=%d",
			localCalls.Load(), trace.CounterValue(trace.CtrClusterLocalFallback))
	}
	if !r.Ready() {
		t.Fatal("router with a local path is always ready")
	}
}

func TestRouterPropagatesTraceContext(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	r := newTestRouter(t, RouterConfig{Peers: []string{a.addr()}})

	rt := trace.NewRequestTrace("")
	ctx := trace.WithRequestTrace(context.Background(), rt)
	if _, err := r.Compress(ctx, core.DTypeByte, []uint64{4}, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got := a.lastTraceparent.Load(); got != rt.Traceparent() {
		t.Fatalf("Traceparent not propagated: got %q want %q", got, rt.Traceparent())
	}
	if got := a.lastRequestID.Load(); got != rt.TraceID() {
		t.Fatalf("X-Pressio-Request-Id not propagated: got %q want %q", got, rt.TraceID())
	}
}

func TestRouterManyKeepsResultsIndexAligned(t *testing.T) {
	a := newFakeShard(t, "a", 0)
	b := newFakeShard(t, "b", 0)
	c := newFakeShard(t, "c", 0)
	r := newTestRouter(t, RouterConfig{
		Peers:  []string{a.addr(), b.addr(), c.addr()},
		Fanout: 4,
	})

	chunks := make([]Chunk, 40)
	for i := range chunks {
		p := []byte(fmt.Sprintf("chunk-%03d", i))
		chunks[i] = Chunk{DType: core.DTypeByte, Dims: []uint64{uint64(len(p))}, Payload: p}
	}
	results, err := r.CompressMany(context.Background(), chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(chunks) {
		t.Fatalf("got %d results for %d chunks", len(results), len(chunks))
	}
	served := map[string]int{}
	for i, out := range results {
		tag, body, ok := bytes.Cut(out, []byte(":"))
		if !ok || !bytes.Equal(body, chunks[i].Payload) {
			t.Fatalf("result %d misaligned: %q", i, out)
		}
		served[string(tag)]++
	}
	if len(served) < 2 {
		t.Fatalf("fan-out did not spread across shards: %v", served)
	}
}

func TestRouterManyJoinsErrorsWhenFleetUnreachable(t *testing.T) {
	dead := newFakeShard(t, "dead", 0)
	addr := dead.addr()
	dead.ts.Close()
	r := newTestRouter(t, RouterConfig{
		Peers: []string{addr},
		Peer:  PeerConfig{Attempts: 1, Timeout: time.Second},
	})
	chunks := []Chunk{
		{DType: core.DTypeByte, Dims: []uint64{1}, Payload: []byte("x")},
		{DType: core.DTypeByte, Dims: []uint64{1}, Payload: []byte("y")},
	}
	results, err := r.CompressMany(context.Background(), chunks)
	if !errors.Is(err, core.ErrShed) {
		t.Fatalf("joined error should carry the shed type: %v", err)
	}
	for i, out := range results {
		if out != nil {
			t.Fatalf("failed chunk %d has a result: %q", i, out)
		}
	}
}
