package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Trace counters for the HTTP fault injector, mirroring the IO wrapper's
// per-kind accounting. trace.CtrFaultsInjected aggregates these too.
const (
	CtrHTTPRefused   = "faultinject.http.refused"
	CtrHTTPDelays    = "faultinject.http.delays"
	CtrHTTPTruncated = "faultinject.http.truncated"
	CtrHTTPCorrupted = "faultinject.http.corrupted"
)

// HTTPRates configures the per-request fault probabilities of a
// RoundTripper. Draws happen in a fixed order (delay, refuse, then on the
// response truncate, corrupt), so a given seed and configuration replays the
// same fault schedule — the network-level analogue of the compressor
// injector's determinism contract.
type HTTPRates struct {
	Seed int64
	// Refuse is the probability the request never reaches the network:
	// it fails immediately with a connection-refused error (ECONNREFUSED
	// wrapped, so callers classifying syscall errors see the real thing).
	Refuse float64
	// Delay is the probability of sleeping DelayMS before the round trip —
	// injected latency ahead of the dial, where a hedging client feels it.
	Delay   float64
	DelayMS int64
	// Truncate is the probability the response body is cut to a strict
	// prefix that ends in io.ErrUnexpectedEOF, as a torn connection would.
	Truncate float64
	// Corrupt is the probability one bit of the response body is flipped
	// (body length preserved — only integrity checking catches it).
	Corrupt float64
}

// RoundTripper wraps an http.RoundTripper with deterministic fault
// injection: refused connections, injected latency, truncated and corrupted
// response bodies. It is the transport-level sibling of the compressor and
// IO injectors, for driving router/peer-client resilience tests without real
// network failures.
type RoundTripper struct {
	next  http.RoundTripper
	rates HTTPRates

	mu  sync.Mutex
	rng *rand.Rand
}

func checkRate(key string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%w: %s %v not in [0,1]", core.ErrInvalidOption, key, v)
	}
	return nil
}

// NewRoundTripper wraps next (nil means http.DefaultTransport).
func NewRoundTripper(next http.RoundTripper, rates HTTPRates) (*RoundTripper, error) {
	for _, r := range []struct {
		key string
		v   float64
	}{
		{"refuse_rate", rates.Refuse},
		{"delay_rate", rates.Delay},
		{"truncate_rate", rates.Truncate},
		{"corrupt_rate", rates.Corrupt},
	} {
		if err := checkRate("faultinject_http:"+r.key, r.v); err != nil {
			return nil, err
		}
	}
	if rates.DelayMS < 0 {
		return nil, fmt.Errorf("%w: faultinject_http:delay_ms %d", core.ErrInvalidOption, rates.DelayMS)
	}
	if next == nil {
		next = http.DefaultTransport
	}
	return &RoundTripper{next: next, rates: rates}, nil
}

// Clone derives an injector with the same rates but an independent fault
// schedule, using the same stable seed derivation as the compressor and IO
// injectors — clone fleets draw distinct but reproducible schedules.
func (t *RoundTripper) Clone() *RoundTripper {
	rates := t.rates
	rates.Seed = rates.Seed*0x9e3779b9 + 1
	return &RoundTripper{next: t.next, rates: rates}
}

func (t *RoundTripper) roll() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.rates.Seed))
	}
	return t.rng.Float64()
}

func (t *RoundTripper) pick(n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.rates.Seed))
	}
	return t.rng.Intn(n)
}

// CloseIdleConnections forwards to the wrapped transport when it supports
// the optional interface, so a router draining through an injector still
// releases its pooled connections.
func (t *RoundTripper) CloseIdleConnections() {
	if ci, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// RoundTrip implements http.RoundTripper.
func (t *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rates.Delay > 0 && t.roll() < t.rates.Delay {
		trace.CounterAdd(CtrHTTPDelays, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		select {
		case <-time.After(time.Duration(t.rates.DelayMS) * time.Millisecond):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if t.rates.Refuse > 0 && t.roll() < t.rates.Refuse {
		trace.CounterAdd(CtrHTTPRefused, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		// The request never happened; close the body as the transport
		// contract requires and report the classic refused dial.
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, fmt.Errorf("faultinject: dial %s: %w", req.URL.Host, syscall.ECONNREFUSED)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.rates.Truncate > 0 && t.roll() < t.rates.Truncate {
		trace.CounterAdd(CtrHTTPTruncated, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		resp.Body = &truncatingBody{body: resp.Body, inject: t}
		return resp, nil
	}
	if t.rates.Corrupt > 0 && t.roll() < t.rates.Corrupt {
		trace.CounterAdd(CtrHTTPCorrupted, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		resp.Body = &corruptingBody{body: resp.Body, inject: t}
		return resp, nil
	}
	return resp, nil
}

// truncatingBody delivers a strict prefix of the real body, then fails with
// io.ErrUnexpectedEOF — what a client sees when the peer dies mid-response.
// The cut point is drawn deterministically from the injector's PRNG on the
// first read (when the first chunk's size is known).
type truncatingBody struct {
	body   io.ReadCloser
	inject *RoundTripper
	limit  int // bytes still deliverable; -1 before the first read
	set    bool
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if !b.set {
		n, err := b.body.Read(p)
		if n <= 1 {
			if err != nil {
				return n, err
			}
			return n, io.ErrUnexpectedEOF
		}
		cut := 1 + b.inject.pick(n-1) // strict prefix of what arrived
		b.set = true
		b.limit = 0
		return cut, io.ErrUnexpectedEOF
	}
	return 0, io.ErrUnexpectedEOF
}

func (b *truncatingBody) Close() error { return b.body.Close() }

// corruptingBody flips one deterministic bit in the first chunk read,
// preserving length — only checksums or decode failures can catch it.
type corruptingBody struct {
	body    io.ReadCloser
	inject  *RoundTripper
	flipped bool
}

func (b *corruptingBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if n > 0 && !b.flipped {
		b.flipped = true
		pos := b.inject.pick(n * 8)
		p[pos/8] ^= 1 << (pos % 8)
	}
	return n, err
}

func (b *corruptingBody) Close() error { return b.body.Close() }
