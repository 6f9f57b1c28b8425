package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pressio/internal/core"
	"pressio/internal/faultinject"
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

// replyTransport answers every request, without a network, with one status
// and body; length is the declared Content-Length, -1 for a chunked reply.
type replyTransport struct {
	status int
	length int64
	body   []byte
}

func (rt replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
	return &http.Response{
		StatusCode:    rt.status,
		Status:        http.StatusText(rt.status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		ContentLength: rt.length,
		Body:          io.NopCloser(bytes.NewReader(rt.body)),
		Request:       req,
	}, nil
}

// bytesAllocated returns the heap bytes f allocates, all goroutines counted.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPeerReplyBounded: a reply is refused as a transient peer fault, the
// class of a dropped connection, when its framing is past MemBudget plus twice
// the request: a declared length (before any buffer of that size exists) or
// a chunked body that runs past it. A reply inside the bound is accepted
// whatever its size: a compress may expand a request admitted at the whole
// budget, and a decompress reply is the shard's to size, not the dims x
// dtype hint's.
func TestPeerReplyBounded(t *testing.T) {
	cases := []struct {
		name    string
		op      string
		budget  int64
		request int
		reply   replyTransport
		want    string // "" = accepted
	}{
		{"declared 1GiB, sent 10B", OpCompress, 0, 1,
			replyTransport{http.StatusOK, 1 << 30, make([]byte, 10)}, "declared length 1073741824 past"},
		{"chunked compress past the bound", OpCompress, 4096, 1,
			replyTransport{http.StatusOK, -1, make([]byte, 8192)}, "chunked reply past the 4098-byte bound"},
		{"declared decompress past the bound", OpDecompress, 4096, 1,
			replyTransport{http.StatusOK, 8192, make([]byte, 8192)}, "declared length 8192 past the 4098-byte bound"},
		{"declared compress expands a request at MemBudget", OpCompress, 4096, 4096,
			replyTransport{http.StatusOK, 4098, make([]byte, 4098)}, ""},
		{"chunked compress expands a request at MemBudget", OpCompress, 4096, 4096,
			replyTransport{http.StatusOK, -1, make([]byte, 4098)}, ""},
		{"decompress reply is not the dims x dtype hint", OpDecompress, 0, 1,
			replyTransport{http.StatusOK, 68, make([]byte, 68)}, ""},
		{"chunked reply under an unbounded MemBudget", OpCompress, math.MaxInt64, 1,
			replyTransport{http.StatusOK, -1, []byte("0123456789")}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := newTestPeer(t, "peer.test:1", PeerConfig{Transport: tc.reply, Attempts: 1, MemBudget: tc.budget})
			var out []byte
			var err error
			grew := bytesAllocated(func() {
				// 16 float32 is 64 bytes, whatever the request's size.
				out, err = pc.Do(context.Background(), tc.op, core.DTypeFloat32, []uint64{16}, make([]byte, tc.request))
			})
			switch {
			case tc.want == "" && (err != nil || !bytes.Equal(out, tc.reply.body)):
				t.Fatalf("err = %v, out %d bytes; want the %d-byte reply", err, len(out), len(tc.reply.body))
			case tc.want != "" && (!core.IsTransient(err) || !strings.Contains(fmt.Sprint(err), tc.want)):
				t.Fatalf("err = %v, want a transient %q", err, tc.want)
			}
			if grew >= 1<<20 {
				t.Fatalf("reply allocated %d bytes, want < 1 MiB", grew)
			}
		})
	}
}

// TestPeerTruncatedReplyIsTransient: a body cut short by the HTTP fault
// injector is a transient "truncated response", so the router retries and
// fails over exactly as for a peer that died mid-reply.
func TestPeerTruncatedReplyIsTransient(t *testing.T) {
	body := bytes.Repeat([]byte("payload-"), 512)
	for _, length := range []int64{int64(len(body)), -1} {
		rt, err := faultinject.NewRoundTripper(replyTransport{http.StatusOK, length, body}, faultinject.HTTPRates{Seed: 3, Truncate: 1})
		if err != nil {
			t.Fatal(err)
		}
		pc := newTestPeer(t, "peer.test:1", PeerConfig{Transport: rt, Attempts: 1})
		_, err = pc.Do(context.Background(), OpCompress, core.DTypeByte, []uint64{1}, []byte("x"))
		if !core.IsTransient(err) || !strings.Contains(fmt.Sprint(err), "truncated response") {
			t.Fatalf("length %d: err = %v, want a transient truncated response", length, err)
		}
	}
}

// Declared-length modes of FuzzPeerReply.
const (
	lengthAbsent = iota // chunked
	lengthShort         // half the body
	lengthExact
	lengthLong // past the body
	lengthHuge // 1 TiB
	lengthModes
)

// fuzzStatuses are the reply statuses FuzzPeerReply picks from.
var fuzzStatuses = []int{200, 400, 404, 413, 500, 502, 503}

// FuzzPeerReply serves an arbitrary reply (op, dims hint, status, declared
// length, body) through PeerConfig.Transport. PeerClient.Do must not panic,
// must allocate no more than its bound (MemBudget plus twice the request,
// whatever the op or hint) plus 1 MiB, and must classify every error
// as the status does: 503 sheds, other 5xx and framing faults are transient,
// and 4xx is an invalid option.
func FuzzPeerReply(f *testing.F) {
	for mode := byte(0); mode < lengthModes; mode++ {
		for st := range fuzzStatuses {
			f.Add(false, byte(st), mode, uint8(16), uint16(0), []byte("0123456789abcdef"))
		}
		f.Add(true, byte(0), mode, uint8(16), uint16(4100), []byte("0123456789abcdef"))
		f.Add(false, byte(0), mode, uint8(0), uint16(5000), []byte("x"))
	}
	const budget = 4096
	f.Fuzz(func(t *testing.T, decompress bool, st, mode, elems uint8, pad uint16, seed []byte) {
		status := fuzzStatuses[int(st)%len(fuzzStatuses)]
		body := append(seed, make([]byte, pad)...)
		var length int64
		switch mode % lengthModes {
		case lengthAbsent:
			length = -1
		case lengthShort:
			length = int64(len(body) / 2)
		case lengthExact:
			length = int64(len(body))
		case lengthLong:
			length = int64(len(body)) + 1 + int64(pad%7)
		case lengthHuge:
			length = 1 << 40
		}
		op, dims := OpCompress, []uint64{uint64(elems)}
		if decompress {
			op = OpDecompress
		}

		// What the reply can be: the bytes a length-respecting reader gets,
		// or a framing fault. The request is one byte.
		const limit = budget + 2
		got, fault := body, false
		switch {
		case length < 0:
			fault = len(body) > limit
		case length > limit || length > int64(len(body)):
			fault = true
		default:
			got = body[:length]
		}

		pc := newTestPeer(t, "peer.test:1", PeerConfig{
			Transport: replyTransport{status, length, body}, Attempts: 1, MemBudget: budget,
		})
		var out []byte
		var err error
		grew := bytesAllocated(func() {
			out, err = pc.Do(context.Background(), op, core.DTypeFloat32, dims, []byte("x"))
		})
		if grew > uint64(limit)+1<<20 {
			t.Fatalf("allocated %d bytes for a reply bounded by %d", grew, limit)
		}
		switch {
		case fault:
			if !core.IsTransient(err) {
				t.Fatalf("framing fault (status %d, length %d, body %d): err = %v, want transient", status, length, len(body), err)
			}
		case status == http.StatusOK:
			if err != nil || !bytes.Equal(out, got) {
				t.Fatalf("status 200, length %d, body %d: err = %v, out %d bytes, want %d", length, len(body), err, len(out), len(got))
			}
		case status == http.StatusServiceUnavailable:
			if !errors.Is(err, core.ErrShed) || core.IsTransient(err) {
				t.Fatalf("503: err = %v, want a shed", err)
			}
		case status >= 500:
			if !core.IsTransient(err) {
				t.Fatalf("%d: err = %v, want transient", status, err)
			}
		default:
			if !errors.Is(err, core.ErrInvalidOption) || core.IsTransient(err) {
				t.Fatalf("%d: err = %v, want an invalid option", status, err)
			}
		}
	})
}
