package faultinject

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"pressio/internal/core"
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
// RoundTripper. Each round trip draws from its own schedule, seeded from
// Seed and the request (see RoundTripper.schedule), in a fixed order (delay,
// refuse, then on the response truncate, corrupt). So a given seed and
// configuration replays the same faults on the same requests, in whatever
// order concurrent callers issue them — the network-level analogue of the
// compressor injector's determinism contract. Concurrent attempts of one
// request, such as a hedge racing its primary, may swap attempt ordinals.
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

	mu    sync.Mutex
	tries map[uint32]int64 // round trips so far per request key
}

// NewRoundTripper wraps next (nil means http.DefaultTransport). It remembers
// every request key it sees, so it is meant for bounded test campaigns.
func NewRoundTripper(next http.RoundTripper, rates HTTPRates) (*RoundTripper, error) {
	lo := min(rates.Refuse, rates.Delay, rates.Truncate, rates.Corrupt)
	hi := max(rates.Refuse, rates.Delay, rates.Truncate, rates.Corrupt)
	if lo < 0 || hi > 1 || rates.DelayMS < 0 {
		return nil, fmt.Errorf("%w: faultinject_http: rates %+v: each must lie in [0,1], delay_ms >= 0", core.ErrInvalidOption, rates)
	}
	if next == nil {
		next = http.DefaultTransport
	}
	return &RoundTripper{next: next, rates: rates, tries: map[uint32]int64{}}, nil
}

// schedule is the fault schedule of one round trip. Its seed is derived from
// the injector's seed, the request's key — the CRC-32C of its method, path
// and query, and body (read through GetBody) — and how many round trips of
// that key came before. The host is not part of the key, so a failover to
// another replica continues the same key's schedule.
func (t *RoundTripper) schedule(req *http.Request) *dice {
	h := crc32.New(castagnoli)
	_, _ = io.WriteString(h, req.Method+" "+req.URL.RequestURI()+"\n")
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			_, _ = io.Copy(h, body)
			_ = body.Close()
		}
	}
	key := h.Sum32()
	t.mu.Lock()
	n := t.tries[key]
	t.tries[key] = n + 1
	t.mu.Unlock()
	return newDice(derive(derive(t.rates.Seed, int64(key)), n))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	d := t.schedule(req)
	if d.fires(t.rates.Delay, CtrHTTPDelays) {
		select {
		case <-time.After(time.Duration(t.rates.DelayMS) * time.Millisecond):
		case <-req.Context().Done():
			if req.Body != nil {
				_ = req.Body.Close() // the request never happened, as below
			}
			return nil, req.Context().Err()
		}
	}
	if d.fires(t.rates.Refuse, CtrHTTPRefused) {
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
	switch {
	case d.fires(t.rates.Truncate, CtrHTTPTruncated):
		resp.Body = &truncatingBody{body: resp.Body, dice: d}
	case d.fires(t.rates.Corrupt, CtrHTTPCorrupted):
		resp.Body = &corruptingBody{body: resp.Body, dice: d}
	}
	return resp, nil
}

// truncatingBody delivers a strict prefix of the real body, then fails with
// io.ErrUnexpectedEOF — what a client sees when the peer dies mid-response.
// The cut point is drawn from the round trip's schedule on the first read
// (when the first chunk's size is known).
type truncatingBody struct {
	body io.ReadCloser
	dice *dice
	cut  bool
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if b.cut {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := b.body.Read(p)
	if n <= 1 {
		if err != nil {
			return n, err
		}
		return n, io.ErrUnexpectedEOF
	}
	b.cut = true
	return b.dice.cut(n), io.ErrUnexpectedEOF // strict prefix of what arrived
}

func (b *truncatingBody) Close() error { return b.body.Close() }

// corruptingBody flips one drawn bit in the first chunk read, preserving
// length — only checksums or decode failures can catch it.
type corruptingBody struct {
	body    io.ReadCloser
	dice    *dice
	flipped bool
}

func (b *corruptingBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if n > 0 && !b.flipped {
		b.flipped = true
		b.dice.flip(p[:n])
	}
	return n, err
}

func (b *corruptingBody) Close() error { return b.body.Close() }
