package daemon

import (
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"pressio/internal/trace"
)

// TestCorruptPayloadIsBadRequestThroughRouter: a corrupt payload is the
// caller's fault at every hop. A shard answers 400, and a router over three
// healthy shards answers 400 too, without a retry, a failover, a local
// fallback or a peer failure charged to any breaker.
func TestCorruptPayloadIsBadRequestThroughRouter(t *testing.T) {
	var peers []string
	for range 3 {
		shard, _, _ := startTestDaemon(t, func(c *Config) { c.Compressor = "sz" })
		peers = append(peers, shard.Addr())
	}
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "sz"
		c.RouterPeers = strings.Join(peers, ",")
	})
	garbage := make([]byte, 31)
	rand.New(rand.NewSource(31)).Read(garbage)
	send := func(addr string) (int, string) {
		resp := postData(t, "http://"+addr+"/decompress?dims=64&dtype=float32", garbage)
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if status, body := send(peers[0]); status != http.StatusBadRequest {
		t.Fatalf("shard answered %d to a corrupt payload, want 400: %s", status, body)
	}
	for i := range 6 {
		garbage[0] = byte(i) // a different key, so a different primary
		if status, body := send(router.Addr()); status != http.StatusBadRequest {
			t.Fatalf("request %d: router answered %d to a corrupt payload, want 400: %s", i, status, body)
		}
	}
	if n := trace.CounterValue(trace.CtrClusterRequests); n < 6 {
		t.Fatalf("cluster.requests = %d: the router did not route the payloads", n)
	}
	counters := []string{trace.CtrClusterRetries, trace.CtrClusterFailovers, trace.CtrClusterLocalFallback, trace.CtrBreakerOpened}
	for _, peer := range peers {
		counters = append(counters, trace.ClusterPeerKey(peer, "failures"))
	}
	for _, name := range counters {
		if n := trace.CounterValue(name); n != 0 {
			t.Errorf("%s = %d after corrupt payloads, want 0", name, n)
		}
	}
}
