// Router-mode tests: the daemon's HTTP surface must be indistinguishable
// between single-node and router topologies — same success shape, same typed
// 503s with Retry-After and X-Pressio-Error, same trace-id continuity.
package daemon

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pressio/internal/trace"
)

// deadAddr reserves an ephemeral port and releases it: an address that
// refuses connections for the rest of the test.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func postData(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRouterModeRoundTripsThroughShards(t *testing.T) {
	shardA, _, _ := startTestDaemon(t, func(c *Config) { c.Compressor = "flate" })
	shardB, _, _ := startTestDaemon(t, func(c *Config) { c.Compressor = "flate" })
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "flate"
		c.RouterPeers = shardA.Addr() + "," + shardB.Addr()
		c.RouterHealthInterval = 50 * time.Millisecond
		c.PeerTimeout = 5 * time.Second
		c.StoreDir = t.TempDir()
	})
	// The whole start list: recovery first, the ring classified before the
	// listener accepts a request.
	if comps := router.comps.String(); comps != "store,health,router,listener" {
		t.Fatalf("start order %q", comps)
	}
	base := "http://" + router.Addr()
	_, payload := sampleFloat32(2048)

	resp := postData(t, base+"/compress?dims=2048&dtype=float32", payload)
	compressed, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router compress status %d: %s", resp.StatusCode, compressed)
	}
	if resp.Header.Get("X-Pressio-Request-Id") == "" {
		t.Fatal("router response missing request id header")
	}
	if len(compressed) == 0 || bytes.Equal(compressed, payload) {
		t.Fatal("router did not return a compressed payload")
	}

	resp = postData(t, base+"/decompress?dims=2048&dtype=float32", compressed)
	restored, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router decompress status %d: %s", resp.StatusCode, restored)
	}
	if !bytes.Equal(restored, payload) {
		t.Fatal("routed round trip did not restore the payload")
	}
	if trace.CounterValue(trace.CtrClusterRequests) < 2 {
		t.Fatalf("cluster.requests = %d, want >= 2", trace.CounterValue(trace.CtrClusterRequests))
	}
	if trace.CounterValue(trace.CtrClusterLocalFallback) != 0 {
		t.Fatal("healthy fleet degraded to local compression")
	}

	// Router readiness aggregates the start list: health checker swept,
	// router serving, listener bound.
	rz, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz status %d", rz.StatusCode)
	}
}

// TestRouterMode503MatchesSingleNodeShape: with the whole fleet unreachable
// and local degradation disabled, the router's rejection must be the exact
// typed 503 a single node sheds with — Retry-After and X-Pressio-Error so
// clients cannot tell the topologies apart.
func TestRouterMode503MatchesSingleNodeShape(t *testing.T) {
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.RouterPeers = deadAddr(t)
		c.RouterNoLocal = true
		c.RouterHealthInterval = 50 * time.Millisecond
		c.PeerTimeout = 500 * time.Millisecond
	})
	base := "http://" + router.Addr()
	_, payload := sampleFloat32(64)

	resp := postData(t, base+"/compress?dims=64&dtype=float32", payload)
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fleet-unreachable status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
	if got := resp.Header.Get("X-Pressio-Error"); got != "shed" {
		t.Fatalf("X-Pressio-Error = %q, want %q", got, "shed")
	}
	if !strings.Contains(string(body), "no replica reachable") {
		t.Fatalf("shed body %q does not explain the fleet state", body)
	}

	// The health checker's first sweep classified the dead peer, so
	// readiness reports the daemon cannot serve.
	rz, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rzBody, _ := io.ReadAll(rz.Body)
	_ = rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d with no live peers and no local path", rz.StatusCode)
	}
	if !strings.Contains(string(rzBody), "not ready") {
		t.Fatalf("/readyz body %q", rzBody)
	}
	if trace.CounterValue(trace.CtrClusterPeerDown) == 0 {
		t.Fatal("health checker never counted the dead peer")
	}
}

func TestRouterModeDegradesToLocalCompression(t *testing.T) {
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "flate"
		c.RouterPeers = deadAddr(t)
		c.RouterHealthInterval = 50 * time.Millisecond
		c.PeerTimeout = 500 * time.Millisecond
	})
	base := "http://" + router.Addr()
	_, payload := sampleFloat32(2048)

	resp := postData(t, base+"/compress?dims=2048&dtype=float32", payload)
	compressed, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local degradation status %d: %s", resp.StatusCode, compressed)
	}
	if trace.CounterValue(trace.CtrClusterLocalFallback) == 0 {
		t.Fatal("local fallback not counted")
	}
	resp = postData(t, base+"/decompress?dims=2048&dtype=float32", compressed)
	restored, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, payload) {
		t.Fatalf("degraded round trip failed: status %d", resp.StatusCode)
	}

	// A router that can degrade locally is ready even with zero live peers.
	rz, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d; local path should keep the router ready", rz.StatusCode)
	}
}

// TestRouterModeTraceContinuityAcrossHop: a caller-supplied traceparent must
// survive the router hop — the router's response carries the caller's trace
// id, the router's own /tracez shows the routing span, and the shard that
// served the request retains a span tree under the same trace id.
func TestRouterModeTraceContinuityAcrossHop(t *testing.T) {
	shard, _, _ := startTestDaemon(t, func(c *Config) { c.Compressor = "flate" })
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "flate"
		c.RouterPeers = shard.Addr()
		c.RouterHealthInterval = 50 * time.Millisecond
		c.PeerTimeout = 5 * time.Second
	})
	_, payload := sampleFloat32(256)

	const traceID = "aabbccddeeff00112233445566778899"
	req, err := http.NewRequest(http.MethodPost,
		"http://"+router.Addr()+"/compress?dims=256&dtype=float32", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pressio-Request-Id"); got != traceID {
		t.Fatalf("router response trace id %q, want the caller's %q", got, traceID)
	}

	// The router recorded the hop under the caller's id...
	tr, err := http.Get("http://" + router.Addr() + "/tracez?id=" + traceID + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(tr.Body)
	_ = tr.Body.Close()
	if tr.StatusCode != http.StatusOK || !strings.Contains(string(tree), "daemon.route") {
		t.Fatalf("router /tracez (status %d) missing the routing span:\n%s", tr.StatusCode, tree)
	}

	// ...and the shard served it under the very same id: continuity across
	// the process boundary.
	tr, err = http.Get("http://" + shard.Addr() + "/tracez?id=" + traceID + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ = io.ReadAll(tr.Body)
	_ = tr.Body.Close()
	if tr.StatusCode != http.StatusOK || !strings.Contains(string(tree), "daemon.compress") {
		t.Fatalf("shard /tracez (status %d) missing the caller's trace id:\n%s", tr.StatusCode, tree)
	}
}
