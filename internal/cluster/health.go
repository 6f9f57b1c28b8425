package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"pressio/internal/obslog"
	"pressio/internal/trace"
)

// HealthChecker polls every peer's /readyz and flips health state on the
// router's ring, so placement re-resolves on peer-up/peer-down transitions
// instead of waiting for request-path failures. Start launches the poll
// loop, Ready reports once the first full sweep has classified every peer,
// Stop joins the loop.
type HealthChecker struct {
	router   *Router
	interval time.Duration
	timeout  time.Duration
	// OnChange, when set before Start, is invoked (outside any lock) for
	// every up/down transition.
	OnChange func(peer string, up bool)

	cancel context.CancelFunc
	done   chan struct{}
	swept  atomic.Bool
}

// NewHealthChecker builds a checker over the router's peers. interval <= 0
// defaults to 1s; the per-probe timeout is interval capped at 2s.
func NewHealthChecker(router *Router, interval time.Duration) *HealthChecker {
	if interval <= 0 {
		interval = time.Second
	}
	timeout := interval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	return &HealthChecker{router: router, interval: interval, timeout: timeout}
}

// Start runs one immediate sweep (so Ready flips as soon as the fleet has
// been classified once), then a steady poll loop until Stop.
func (h *HealthChecker) Start(context.Context) error {
	// The loop outlives the startup call; it gets its own cancellable
	// lifetime, joined by Stop.
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.done = make(chan struct{})
	h.sweep(ctx)
	h.swept.Store(true)
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(h.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				h.sweep(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
	return nil
}

// Stop cancels the loop and waits for it (bounded by ctx).
func (h *HealthChecker) Stop(ctx context.Context) error {
	if h.cancel == nil {
		return nil
	}
	h.cancel()
	select {
	case <-h.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready is true once the first sweep completed.
func (h *HealthChecker) Ready() bool { return h.swept.Load() }

// sweep probes every peer once and records transitions.
func (h *HealthChecker) sweep(ctx context.Context) {
	for addr, pc := range h.router.clients {
		if ctx.Err() != nil {
			return
		}
		err := pc.CheckReady(ctx, h.timeout)
		up := err == nil
		if !h.router.ring.SetUp(addr, up) {
			continue // no transition
		}
		if up {
			trace.CounterAdd(trace.CtrClusterPeerUp, 1)
			obslog.Default().Infow("cluster.peer_up", obslog.Str("peer", addr))
		} else {
			trace.CounterAdd(trace.CtrClusterPeerDown, 1)
			obslog.Default().Warnw("cluster.peer_down", obslog.Str("peer", addr), obslog.Err(err))
		}
		if h.OnChange != nil {
			h.OnChange(addr, up)
		}
	}
}
