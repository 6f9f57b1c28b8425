package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
	// budget is MemBudget, which also bounds a reply (see attempt).
	budget int64
	lat    *latencyWindow
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
	// MemBudget bounds bytes in flight to one peer (default 256 MiB). A
	// reply may be at most MemBudget plus twice its request.
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
	br := &cfg.Breaker
	br.Window = cmp.Or(max(br.Window, 0), 16)
	br.Failures = min(cmp.Or(max(br.Failures, 0), 8), br.Window)
	br.Cooldown = cmp.Or(max(br.Cooldown, 0), time.Second)
	br.Probes = cmp.Or(max(br.Probes, 0), 1)
	hc := &http.Client{Transport: cfg.Transport}
	return &PeerClient{
		addr:     addr,
		hc:       hc,
		breaker:  service.StateFor("cluster.peer."+addr, cfg.Breaker),
		admit:    admit,
		backoff:  bo,
		attempts: cfg.Attempts,
		timeout:  cfg.Timeout,
		budget:   cfg.MemBudget,
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
		case err == nil || core.IsBadInput(err):
			// A 4xx reply is the request's fault, not the peer's: the peer
			// answered.
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

// attempt is one HTTP round trip with its own deadline. It returns only once
// the transport has let go of body, so the caller may reuse body as soon as
// Do returns.
func (c *PeerClient) attempt(ctx context.Context, op string, dtype core.DType, dims []uint64, body []byte) ([]byte, error) {
	sent := &sentBody{buf: body, closed: make(chan struct{}, 1)}
	defer sent.release(c.timeout) // runs last: after cancel and resp.Body.Close
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()

	u := "http://" + c.addr + "/" + op + "?dims=" + dimsParam(dims) + "&dtype=" + dtype.String()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, http.NoBody)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.ContentLength, req.GetBody = int64(len(body)), sent.reader
		req.Body, _ = sent.reader()
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
	// The reply is bounded by the budget plus twice the request: room for any
	// decompress the budget allows, and for a compress that expands a request
	// admitted at the budget (fixed-rate zfp can double its input). The shard
	// that decodes a stream decides its output size, so the bound does not.
	n := 2 * int64(len(body))
	payload, err := readReply(resp, min(c.budget, math.MaxInt64-n)+n)
	if err != nil {
		// The peer died (or a fault injector truncated the stream) mid-body,
		// or framed a reply past the bound: a peer fault either way, retried
		// and failed over like a dropped connection.
		return nil, core.Transient(fmt.Errorf("cluster: peer %s %s: %w", c.addr, op, err))
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

// readReply reads a reply body whole, refusing one longer than limit before
// allocating it. A declared length is read into one buffer of exactly that
// length, taken from scratch past core.LargeObject; an undeclared (chunked)
// one is read through a reader that stops one byte past limit.
func readReply(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > limit {
			return nil, fmt.Errorf("declared length %d past the %d-byte bound", n, limit)
		}
		var buf []byte
		if n > core.LargeObject {
			buf = core.GetScratch[byte](int(n))
		} else {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			core.PutScratch(buf)
			return nil, fmt.Errorf("truncated response: %w", err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, min(limit, math.MaxInt64-1)+1))
	switch {
	case err != nil:
		return nil, fmt.Errorf("truncated response: %w", err)
	case int64(len(buf)) > limit:
		return nil, fmt.Errorf("chunked reply past the %d-byte bound", limit)
	}
	return buf, nil
}

// sentBody is one attempt's request body. A transport may read and close a
// body after RoundTrip returns, and a retry reopens it through GetBody, so
// release waits, at most bound, until every reader opened is closed, then
// cuts off any left: a later Read fails without touching buf.
type sentBody struct {
	mu     sync.Mutex
	buf    []byte // nil once released
	open   int
	closed chan struct{} // a token after each close
}

var errBodyCutOff = errors.New("cluster: request body read after its attempt ended")

func (s *sentBody) reader() (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open++
	return &bodyReader{s: s, r: bytes.NewReader(s.buf)}, nil
}

func (s *sentBody) release(bound time.Duration) {
	expired := time.After(bound)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.open > 0 {
		s.mu.Unlock()
		select {
		case <-s.closed:
			s.mu.Lock()
		case <-expired:
			s.mu.Lock()
			s.open = 0 // the cut-off below stops the rest
		}
	}
	s.buf = nil
}

// bodyReader is one opening of a sentBody; r is nil once it is closed.
type bodyReader struct {
	s *sentBody
	r *bytes.Reader
}

func (b *bodyReader) Read(p []byte) (int, error) {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if b.r == nil || b.s.buf == nil {
		return 0, errBodyCutOff
	}
	return b.r.Read(p)
}

func (b *bodyReader) Close() error {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	if b.r != nil {
		b.r = nil
		b.s.open--
		select {
		case b.s.closed <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return nil
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
