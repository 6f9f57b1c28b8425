package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/faultinject"
)

// lingerTransport is a RoundTripper that uses the latitude its contract
// gives: it reads and closes each request body in a goroutine of its own,
// linger after RoundTrip has returned. What it does per peer host:
//
//	"ok"       echoes the body as "ok:"+body, reading it before it replies
//	"slow"     answers only when its request is cancelled (a hedge loser)
//	"refuse"   fails the dial
//	"truncate" replies 200 with a declared length and a body cut short
//	"hold"     answers 200 and never closes the body
type lingerTransport struct {
	linger time.Duration
	open   atomic.Int64 // bodies received and not yet closed

	mu    sync.Mutex
	seen  [][]byte // every body a peer read to its end
	reads []error  // the read error of every body read late
}

func (lt *lingerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body := req.Body
	lt.open.Add(1)
	host := strings.Split(req.URL.Host, ":")[0]
	if host == "hold" {
		go func() { // reads once the attempt is over, and never closes
			time.Sleep(4 * lt.linger)
			_, err := body.Read(make([]byte, 1))
			lt.mu.Lock()
			lt.reads = append(lt.reads, err)
			lt.mu.Unlock()
		}()
		return okReply(req, []byte("held"), 4), nil
	}
	if host == "ok" {
		b, err := io.ReadAll(body)
		lt.record(b, err)
		go lt.closeLater(body, false)
		return okReply(req, append([]byte("ok:"), b...), -1), nil
	}
	go lt.closeLater(body, true)
	switch host {
	case "slow":
		<-req.Context().Done()
		return nil, req.Context().Err()
	case "refuse":
		return nil, fmt.Errorf("lingerTransport: dial %s: %w", req.URL.Host, syscall.ECONNREFUSED)
	default: // truncate
		return okReply(req, []byte("cut"), 1<<16), nil
	}
}

// closeLater reads the body (unless it was read already) after the linger,
// then closes it.
func (lt *lingerTransport) closeLater(body io.ReadCloser, read bool) {
	time.Sleep(lt.linger)
	if read {
		b, err := io.ReadAll(body)
		lt.record(b, err)
	}
	lt.open.Add(-1) // before the close that may end the attempt
	_ = body.Close()
}

func (lt *lingerTransport) record(b []byte, err error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.seen = append(lt.seen, b)
	lt.reads = append(lt.reads, err)
}

// okReply is a 200 carrying body under the declared length (-1: none).
func okReply(req *http.Request, body []byte, length int64) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, ContentLength: length,
		Body: io.NopCloser(bytes.NewReader(body)), Request: req,
	}
}

// TestRouterReturnsOnlyOnceBodiesAreClosed: whatever a transport does with a
// request body after RoundTrip returns (a hedge loser read after its
// cancellation, a refused dial or a truncated reply closed late), Compress
// returns only once every body is closed. The caller may then overwrite its
// buffer at once (the race detector watches), and every peer read exactly
// the bytes that were sent.
func TestRouterReturnsOnlyOnceBodiesAreClosed(t *testing.T) {
	for _, primary := range []string{"slow", "refuse", "truncate"} {
		t.Run(primary, func(t *testing.T) {
			lt := &lingerTransport{linger: 20 * time.Millisecond}
			r := newTestRouter(t, RouterConfig{
				Peers:      []string{primary + ":1", "ok:1"},
				HedgeFloor: 5 * time.Millisecond,
				Peer:       PeerConfig{Transport: lt, Attempts: 2, Timeout: 5 * time.Second},
			})
			// A 64 KiB payload whose first word aims it at the primary.
			payload := bytes.Repeat([]byte{0xa5}, 64<<10)
			for i := uint32(0); r.ring.Replicas(payload, 2)[0] != primary+":1"; i++ {
				binary.LittleEndian.PutUint32(payload, i)
			}
			sent := bytes.Clone(payload)

			out, err := r.Compress(context.Background(), core.DTypeByte, []uint64{uint64(len(payload))}, payload)
			if err != nil || !bytes.Equal(out, append([]byte("ok:"), sent...)) {
				t.Fatalf("err = %v, out %d bytes; want the ok peer's echo", err, len(out))
			}
			if n := lt.open.Load(); n != 0 {
				t.Fatalf("Compress returned with %d request bodies still open", n)
			}
			for i := range payload {
				payload[i] = 0
			}
			lt.mu.Lock()
			defer lt.mu.Unlock()
			if len(lt.seen) < 2 {
				t.Fatalf("%d bodies read, want the %s peer's and the ok peer's", len(lt.seen), primary)
			}
			for i, b := range lt.seen {
				if lt.reads[i] != nil || !bytes.Equal(b, sent) {
					t.Fatalf("body %d: read %d bytes, err %v; want the %d bytes sent", i, len(b), lt.reads[i], len(sent))
				}
			}
		})
	}
}

// TestPeerCutsOffABodyItsTransportHolds: a transport that never closes a
// body holds its attempt only until the attempt's timeout. A read after
// that fails without touching the caller's buffer, which the caller may
// overwrite at once.
func TestPeerCutsOffABodyItsTransportHolds(t *testing.T) {
	lt := &lingerTransport{linger: 20 * time.Millisecond}
	pc := newTestPeer(t, "hold:1", PeerConfig{Transport: lt, Attempts: 1, Timeout: 20 * time.Millisecond})
	payload := bytes.Repeat([]byte{0x5a}, 64<<10)
	out, err := pc.Do(context.Background(), OpCompress, core.DTypeByte, []uint64{uint64(len(payload))}, payload)
	if err != nil || string(out) != "held" {
		t.Fatalf("out %q, err %v", out, err)
	}
	for i := range payload {
		payload[i] = 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lt.mu.Lock()
		reads := append([]error(nil), lt.reads...)
		lt.mu.Unlock()
		if len(reads) > 0 {
			if !errors.Is(reads[0], errBodyCutOff) {
				t.Fatalf("late read: %v, want %v", reads[0], errBodyCutOff)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the late read never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// closeRecorder records whether the request body it hands on was closed.
type closeRecorder struct {
	next   http.RoundTripper
	closed atomic.Bool
}

type recordedBody struct {
	io.ReadCloser
	closed *atomic.Bool
}

func (b recordedBody) Close() error { b.closed.Store(true); return b.ReadCloser.Close() }

func (cr *closeRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Body = recordedBody{req.Body, &cr.closed}
	return cr.next.RoundTrip(req)
}

// TestInjectedFaultsCloseTheBody: a request the HTTP fault injector refuses,
// or that is cancelled in an injected delay, never reaches the wrapped
// transport, so the injector closes its body itself. Otherwise the attempt
// would wait out its whole timeout for the close.
func TestInjectedFaultsCloseTheBody(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rates faultinject.HTTPRates
	}{
		{"refused", faultinject.HTTPRates{Seed: 1, Refuse: 1}},
		{"cancelled in a delay", faultinject.HTTPRates{Seed: 1, Delay: 1, DelayMS: 60_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fi, err := faultinject.NewRoundTripper(replyTransport{http.StatusOK, 2, []byte("ok")}, tc.rates)
			if err != nil {
				t.Fatal(err)
			}
			cr := &closeRecorder{next: fi}
			pc := newTestPeer(t, "peer.test:1", PeerConfig{Transport: cr, Attempts: 1, Timeout: 10 * time.Second})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			begin := time.Now()
			if _, err := pc.Do(ctx, OpCompress, core.DTypeByte, []uint64{3}, []byte("abc")); err == nil {
				t.Fatal("the injected fault did not fail the call")
			}
			if !cr.closed.Load() {
				t.Fatal("the injector did not close the request body")
			}
			if elapsed := time.Since(begin); elapsed > 5*time.Second {
				t.Fatalf("the call took %v: it waited for a body nobody closed", elapsed)
			}
		})
	}
}
