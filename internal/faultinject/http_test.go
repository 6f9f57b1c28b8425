package faultinject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pressio/internal/trace"
)

func faultCampaignSchedule(t *testing.T, rt *RoundTripper, url string, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, requestOutcome(rt, mustRequest(t, url)))
	}
	return out
}

// requestOutcome names the fault one round trip met.
func requestOutcome(rt *RoundTripper, req *http.Request) string {
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return "refused"
	}
	body, readErr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	switch {
	case readErr != nil:
		return "truncated"
	case !bytes.Equal(body, httpPayload):
		return "corrupted"
	}
	return "clean"
}

var httpPayload = bytes.Repeat([]byte("pressio-http-fault-payload."), 16)

func mustRequest(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func newFaultServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(httpPayload)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPFaultScheduleDeterministic: same seed, same rates, same request
// sequence → the identical fault schedule. This is the contract chaos tests
// depend on to be replayable.
func TestHTTPFaultScheduleDeterministic(t *testing.T) {
	ts := newFaultServer(t)
	rates := HTTPRates{Seed: 42, Refuse: 0.2, Truncate: 0.2, Corrupt: 0.2}
	mk := func() *RoundTripper {
		rt, err := NewRoundTripper(nil, rates)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	first := faultCampaignSchedule(t, mk(), ts.URL, 50)
	second := faultCampaignSchedule(t, mk(), ts.URL, 50)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedule diverged at request %d: %s vs %s", i, first[i], second[i])
		}
	}
	kinds := map[string]int{}
	for _, k := range first {
		kinds[k]++
	}
	for _, want := range []string{"clean", "refused", "truncated", "corrupted"} {
		if kinds[want] == 0 {
			t.Fatalf("50-request campaign never produced %q: %v", want, kinds)
		}
	}
}

// TestHTTPScheduleKeyedPerRequest: each request draws its own faults, so
// distinct requests issued from several goroutines meet the same faults
// twice even when the second pass issues them in the opposite order.
func TestHTTPScheduleKeyedPerRequest(t *testing.T) {
	ts := newFaultServer(t)
	const workers, each = 4, 16
	pass := func(reverse bool) map[string]string {
		rt, err := NewRoundTripper(nil, HTTPRates{Seed: 7, Refuse: 0.3, Truncate: 0.3, Corrupt: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		out := map[string]string{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < each; j++ {
					i := j
					if reverse {
						i = each - 1 - j
					}
					body := fmt.Sprintf("request %d.%d", w, i)
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/compress", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					outcome := requestOutcome(rt, req)
					mu.Lock()
					out[body] = outcome
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return out
	}
	first, second := pass(false), pass(true)
	kinds := map[string]int{}
	for body, outcome := range first {
		if second[body] != outcome {
			t.Errorf("%q met %s, then %s", body, outcome, second[body])
		}
		kinds[outcome]++
	}
	if len(kinds) < 4 {
		t.Fatalf("%d requests met only %v", len(first), kinds)
	}
}

func TestHTTPRefuseIsConnectionRefused(t *testing.T) {
	trace.ResetTelemetry()
	ts := newFaultServer(t)
	rt, err := NewRoundTripper(nil, HTTPRates{Seed: 1, Refuse: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := mustRequest(t, ts.URL)
	req.Body = io.NopCloser(bytes.NewReader([]byte("x")))
	_, err = rt.RoundTrip(req)
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("refused request error %v, want ECONNREFUSED", err)
	}
	if trace.CounterValue(CtrHTTPRefused) != 1 {
		t.Fatalf("refused counter %d, want 1", trace.CounterValue(CtrHTTPRefused))
	}
}

func TestHTTPTruncateDeliversStrictPrefixThenUnexpectedEOF(t *testing.T) {
	ts := newFaultServer(t)
	rt, err := NewRoundTripper(nil, HTTPRates{Seed: 1, Truncate: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(mustRequest(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, readErr := io.ReadAll(resp.Body)
	if !errors.Is(readErr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body read error %v, want ErrUnexpectedEOF", readErr)
	}
	if len(body) == 0 || len(body) >= len(httpPayload) {
		t.Fatalf("truncated body is %d bytes of %d, want a strict prefix", len(body), len(httpPayload))
	}
	if !bytes.Equal(body, httpPayload[:len(body)]) {
		t.Fatal("truncated body is not a prefix of the real payload")
	}
}

func TestHTTPCorruptFlipsExactlyOneBitPreservingLength(t *testing.T) {
	ts := newFaultServer(t)
	rt, err := NewRoundTripper(nil, HTTPRates{Seed: 1, Corrupt: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(mustRequest(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != len(httpPayload) {
		t.Fatalf("corruption changed the length: %d vs %d", len(body), len(httpPayload))
	}
	flipped := 0
	for i := range body {
		diff := body[i] ^ httpPayload[i]
		for ; diff != 0; diff &= diff - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", flipped)
	}
}

func TestHTTPDelayHonorsContextCancellation(t *testing.T) {
	ts := newFaultServer(t)
	rt, err := NewRoundTripper(nil, HTTPRates{Seed: 1, Delay: 1, DelayMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err = rt.RoundTrip(mustRequest(t, ts.URL).WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed request error %v, want DeadlineExceeded", err)
	}
	if time.Since(begin) > 5*time.Second {
		t.Fatal("injected delay ignored the context")
	}
}

func TestHTTPRatesValidated(t *testing.T) {
	if _, err := NewRoundTripper(nil, HTTPRates{Refuse: 1.5}); err == nil {
		t.Fatal("out-of-range refuse rate accepted")
	}
	if _, err := NewRoundTripper(nil, HTTPRates{DelayMS: -1}); err == nil {
		t.Fatal("negative delay accepted")
	}
}
