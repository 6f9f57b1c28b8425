package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestRoutedRoundTripsRecycleBodies: in steady state a routed 64 KiB round
// trip allocates one fresh body, the shard codec's output, which every
// caller of a codec receives fresh; half a body, net/http's 32 KiB copy
// buffer for the router's send to the shard; and less than one body more for
// all the rest. The router's request body, the shard's request body and the
// peer's reply come from scratch: at the parent each was a fresh body, and a
// round trip allocated 5.4 bodies. Under the race detector sync.Pool drops a
// quarter of what it is given, so a quarter of the three recycled bodies is
// allocated again and the bound is four bodies; a recycled body that went
// back to a fresh one still crosses it.
func TestRoutedRoundTripsRecycleBodies(t *testing.T) {
	const size, rounds = 64 << 10, 500
	shardA, _, _ := startTestDaemon(t, nil)
	shardB, _, _ := startTestDaemon(t, nil)
	router, _, _ := startTestDaemon(t, func(c *Config) {
		c.RouterPeers = shardA.Addr() + "," + shardB.Addr()
		c.RouterHealthInterval = time.Hour
		c.PeerTimeout = 5 * time.Second
	})
	// One raw keep-alive connection: an http.Client would add a body-sized
	// copy buffer of its own to every request it sends.
	conn, err := net.Dial("tcp", router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	body := bytes.Repeat([]byte{0x3c}, size)
	head := []byte(fmt.Sprintf("POST /compress?dims=%d&dtype=float32 HTTP/1.1\r\nHost: router\r\nContent-Length: %d\r\n\r\n", size/4, size))
	reply := make([]byte, size+64)
	roundTrip := func() {
		if _, err := conn.Write(head); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.ReadFull(resp.Body, reply[:resp.ContentLength])
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(reply[n-size:n], body) {
			t.Fatalf("status %d, %d reply bytes, err %v; want the noop stream of the body", resp.StatusCode, n, err)
		}
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / rounds
	bound := uint64(5 * size / 2)
	if raceEnabled {
		bound = 4 * size
	}
	t.Logf("%d heap bytes allocated per routed %d-byte round trip, bound %d", perRequest, size, bound)
	if perRequest >= bound {
		t.Fatalf("%d heap bytes allocated per routed %d-byte round trip, want < %d", perRequest, size, bound)
	}
}

// TestGuardTimeoutKeepsBodyOutOfScratch: a guard watchdog that fires leaves
// the timed-out call running after the request has been answered. That call
// reads its own copy of the request body, so the body goes back to scratch
// and the next request may write into it (the race detector watches).
func TestGuardTimeoutKeepsBodyOutOfScratch(t *testing.T) {
	base := serveTestDaemon(t, func(c *Config) {
		c.Compressor = "faultinject"
		c.Guard = true
		c.Options = []string{
			"faultinject:compressor=noop",
			"faultinject:delay_rate=1",
			"faultinject:delay_ms=30",
			"guard:deadline_ms=1",
			"guard:max_retries=0",
		}
	})
	body := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		resp := post(t, base+fmt.Sprintf("/compress?dims=%d&dtype=float32", len(body)/4), body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want the watchdog's 500", resp.StatusCode)
		}
	}
	time.Sleep(60 * time.Millisecond) // the timed-out calls read their bodies
}
