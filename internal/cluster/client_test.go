package cluster

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/service"
	"pressio/internal/trace"
)

func newTestPeer(t *testing.T, addr string, cfg PeerConfig) *PeerClient {
	t.Helper()
	service.ResetShared()
	trace.ResetTelemetry()
	pc, err := NewPeerClient(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.CloseIdle)
	return pc
}

// doCancelledAfter issues one call and cancels it (as a hedge winner or a
// disconnecting client would) once d has passed.
func doCancelledAfter(pc *PeerClient, d time.Duration) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(d, cancel).Stop()
	defer cancel()
	_, err := pc.Do(ctx, OpCompress, core.DTypeByte, []uint64{1}, []byte("x"))
	return err
}

// TestPeerCancelledCallsDoNotTripBreaker: a healthy peer that answers in
// 300ms must stay available however many of its callers give up after 20ms.
func TestPeerCancelledCallsDoNotTripBreaker(t *testing.T) {
	shard := newFakeShard(t, "slow", 300*time.Millisecond)
	pc := newTestPeer(t, shard.addr(), PeerConfig{Attempts: 1})
	for i := 0; i < 8; i++ {
		if err := doCancelledAfter(pc, 20*time.Millisecond); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: %v, want a cancellation", i, err)
		}
	}
	if !pc.Available() {
		t.Fatal("8 caller cancellations tripped the breaker of a healthy peer")
	}
	if n := trace.CounterValue(trace.ClusterPeerKey(shard.addr(), "failures")); n != 0 {
		t.Fatalf("cluster.peer.<addr>.failures = %d after cancellations only, want 0", n)
	}
}

// TestPeerCancelledProbeDoesNotWedgeBreaker: when the half-open probe is
// cancelled by its caller, the next call is admitted as the probe.
func TestPeerCancelledProbeDoesNotWedgeBreaker(t *testing.T) {
	shard := newFakeShard(t, "p", 100*time.Millisecond)
	pc := newTestPeer(t, shard.addr(), PeerConfig{
		Attempts: 1,
		Breaker:  service.BreakerConfig{Window: 1, Failures: 1, Cooldown: 150 * time.Millisecond, Probes: 1},
	})
	call := func() error {
		_, err := pc.Do(context.Background(), OpCompress, core.DTypeByte, []uint64{1}, []byte("x"))
		return err
	}
	shard.status.Store(http.StatusInternalServerError)
	if err := call(); err == nil || pc.Available() {
		t.Fatalf("one real failure should open the circuit: err=%v available=%v", err, pc.Available())
	}
	shard.status.Store(0)
	time.Sleep(200 * time.Millisecond) // past the cooldown: half-open

	if err := doCancelledAfter(pc, 10*time.Millisecond); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if err := call(); err != nil {
		t.Fatalf("call after a cancelled probe was not admitted as the probe: %v", err)
	}
	if !pc.Available() {
		t.Fatal("circuit did not close after the successful probe")
	}
}
