package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pressio/internal/core"
	"pressio/internal/resilience"
	"pressio/internal/service"
	"pressio/internal/trace"
)

// PeerClient is the router's handle to one pressiod peer. Every call runs
// the single-node resilience stack, per peer: a process-shared circuit
// breaker (scope "cluster.peer.<addr>", so every client to the same peer
// trips together), a weighted admission bulkhead bounding in-flight bytes,
// capped-exponential-backoff retries with deterministic splitmix64 jitter,
// and a per-attempt deadline.
type PeerClient struct {
	addr    string
	hc      *http.Client
	breaker *service.BreakerState
	admit   *service.Admission
	backoff resilience.Backoff
	// attempts bounds the in-peer tries (1 = no retry); failover across
	// peers is the router's job.
	attempts int
	timeout  time.Duration
	lat      *latencyWindow
}

// PeerConfig tunes the per-peer resilience stack; the zero value gets
// serving-appropriate defaults.
type PeerConfig struct {
	// Transport overrides the HTTP transport (fault injection, tests).
	Transport http.RoundTripper
	// Timeout is the per-attempt deadline (default 10s).
	Timeout time.Duration
	// Attempts is the per-peer try budget including the first (default 2).
	Attempts int
	// Backoff tunes the retry schedule; zero fields get resilience defaults
	// (1ms initial, 250ms cap). The seed is re-derived per peer so fleets
	// retry out of phase.
	Backoff resilience.Backoff
	// Breaker tunes the per-peer circuit; zero fields get breaker-plugin
	// defaults (16-call window, 8 failures, 1s cooldown, 1 probe).
	Breaker service.BreakerConfig
	// MemBudget bounds bytes in flight to one peer (default 256 MiB).
	MemBudget int64
	// QueueDepth bounds callers queued at the per-peer bulkhead (default 32).
	QueueDepth int
}

// NewPeerClient builds the resilient client for one peer address
// ("host:port").
func NewPeerClient(addr string, cfg PeerConfig) (*PeerClient, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Attempts < 1 {
		cfg.Attempts = 2
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 256 << 20
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	bo := cfg.Backoff
	if bo.Seed == 0 {
		// Distinct deterministic seed per peer: retries against different
		// peers de-synchronize while a fixed fleet reproduces exactly.
		bo.Seed = int64(hash64([]byte(addr)))
	}
	admit, err := service.NewBulkhead("cluster.peer."+addr, cfg.MemBudget, cfg.QueueDepth, nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: cfg.Transport}
	return &PeerClient{
		addr:     addr,
		hc:       hc,
		breaker:  service.NewSharedBreaker("cluster.peer."+addr, cfg.Breaker),
		admit:    admit,
		backoff:  bo,
		attempts: cfg.Attempts,
		timeout:  cfg.Timeout,
		lat:      newLatencyWindow(),
	}, nil
}

// Addr returns the peer address the client targets.
func (c *PeerClient) Addr() string { return c.addr }

// Available reports whether the peer's breaker would admit a call right now
// (without consuming a half-open probe — Do performs the real admission).
func (c *PeerClient) Available() bool {
	return c.breaker.Mode() != service.ModeOpen
}

// HedgeDelay derives this peer's hedge trigger from its recent latency
// window: p99 clamped to [floor, ceiling].
func (c *PeerClient) HedgeDelay(floor, ceiling time.Duration) time.Duration {
	return c.lat.hedgeDelay(floor, ceiling)
}

// errPeer wraps a peer failure so the router can decide whether to fail
// over. Transient transport faults and peer-side sheds are failoverable;
// 4xx rejections are the caller's fault everywhere and propagate unchanged.
func failoverable(err error) bool {
	return core.IsTransient(err) || errors.Is(err, core.ErrShed)
}

// Do performs one operation ("compress" or "decompress") against the peer
// and returns the response payload. The request trace in ctx, when present,
// is propagated to the peer via Traceparent and X-Pressio-Request-Id so the
// peer's /tracez records the same trace id as the router's.
func (c *PeerClient) Do(ctx context.Context, op string, dtype core.DType, dims []uint64, body []byte) ([]byte, error) {
	release, err := c.admit.Acquire(ctx, int64(len(body)))
	if err != nil {
		return nil, err
	}
	defer release()

	var out []byte
	err = c.backoff.Retry(ctx, c.attempts, func(try int) error {
		if try > 0 {
			trace.CounterAdd(trace.CtrClusterRetries, 1)
		}
		elapsed, recorded, err := c.breaker.Call(ctx, func() (err error) {
			out, err = c.attempt(ctx, op, dtype, dims, body)
			return err
		})
		switch {
		case err == nil:
			c.lat.observe(elapsed)
			trace.ObserveDuration(trace.HistClusterPeer, elapsed)
			trace.CounterAdd(trace.ClusterPeerKey(c.addr, "requests"), 1)
		case recorded:
			trace.CounterAdd(trace.ClusterPeerKey(c.addr, "failures"), 1)
		}
		return err
	})
	return out, err
}

// attempt is one HTTP round trip with its own deadline.
func (c *PeerClient) attempt(ctx context.Context, op string, dtype core.DType, dims []uint64, body []byte) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()

	u := "http://" + c.addr + "/" + op + "?dims=" + dimsParam(dims) + "&dtype=" + dtype.String()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if rt := trace.RequestTraceFrom(ctx); rt != nil {
		req.Header.Set("Traceparent", rt.Traceparent())
		req.Header.Set("X-Pressio-Request-Id", rt.TraceID())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Refused, reset, injected, or timed-out transport: all retryable
		// here and failoverable above.
		return nil, core.Transient(fmt.Errorf("cluster: peer %s %s: %w", c.addr, op, err))
	}
	defer func() { _ = resp.Body.Close() }()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		// The peer died (or a fault injector truncated the stream) mid-body.
		return nil, core.Transient(fmt.Errorf("cluster: peer %s %s: truncated response: %w", c.addr, op, err))
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return payload, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The peer shed (admission or breaker). Mirror its error kind so the
		// router's own 503s look exactly like a single node's.
		kind := resp.Header.Get("X-Pressio-Error")
		if kind == "breaker-open" {
			return nil, fmt.Errorf("cluster: peer %s %s: %w (%w)", c.addr, op, service.ErrBreakerOpen, core.ErrShed)
		}
		return nil, fmt.Errorf("cluster: peer %s %s: %w: %s", c.addr, op, core.ErrShed, strings.TrimSpace(string(payload)))
	case resp.StatusCode >= 500:
		return nil, core.Transient(fmt.Errorf("cluster: peer %s %s: HTTP %d: %s", c.addr, op, resp.StatusCode, strings.TrimSpace(string(payload))))
	default:
		// 4xx: the request itself is bad; no other peer will accept it.
		// Classified as an invalid option so the router's own response is a
		// 400, exactly like a single node's.
		return nil, fmt.Errorf("cluster: peer %s %s: %w: HTTP %d: %s",
			c.addr, op, core.ErrInvalidOption, resp.StatusCode, strings.TrimSpace(string(payload)))
	}
}

// CheckReady probes the peer's /readyz with a short deadline; used by the
// health checker, bypassing breaker and admission (health must see through
// an open breaker or it could never close).
func (c *PeerClient) CheckReady(ctx context.Context, timeout time.Duration) error {
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, "http://"+c.addr+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s not ready: HTTP %d", c.addr, resp.StatusCode)
	}
	return nil
}

// CloseIdle releases pooled transport connections (router shutdown).
func (c *PeerClient) CloseIdle() { c.hc.CloseIdleConnections() }

func dimsParam(dims []uint64) string {
	var b strings.Builder
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(d, 10))
	}
	return b.String()
}
