package daemon

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"pressio/internal/obslog"
	"pressio/internal/service"
	"pressio/internal/trace"
)

// startTestDaemon boots a daemon on an ephemeral port and returns it with a
// drain trigger and the channel carrying drain's result. The cleanup drains
// if the test has not already done so.
func startTestDaemon(t *testing.T, mutate func(*Config)) (*Daemon, func(), chan error) {
	t.Helper()
	d := newTestDaemon(t, mutate)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	drained := false
	drain := func() {
		if !drained {
			drained = true
			done <- d.Drain()
		}
	}
	t.Cleanup(drain)
	return d, drain, done
}

// serveTestDaemon builds a daemon without starting it and serves its data
// plane from an httptest server closed at cleanup; it returns the base URL.
func serveTestDaemon(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	srv := httptest.NewServer(newTestDaemon(t, mutate).srv.Handler)
	t.Cleanup(srv.Close)
	return srv.URL
}

// newTestDaemon builds a daemon with the test defaults, after mutate.
func newTestDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	service.ResetShared()
	trace.ResetTelemetry()
	cfg := Config{
		Addr:         "127.0.0.1:0",
		Compressor:   "noop",
		Concurrency:  2,
		MemBudget:    1 << 20,
		QueueDepth:   8,
		ReqTimeout:   5 * time.Second,
		DrainTimeout: 5 * time.Second,
		LameDuck:     10 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sampleFloat32(n int) ([]float32, []byte) {
	vals := make([]float32, n)
	raw := make([]byte, 4*n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 7))
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(vals[i]))
	}
	return vals, raw
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDaemonRoundTrip(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "sz_threadsafe"
		c.Options = []string{"pressio:abs=0.01"}
	})
	base := "http://" + d.Addr()
	vals, raw := sampleFloat32(32 * 32)

	resp := post(t, base+"/compress?dims=32,32&dtype=float32", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := resp.Header.Get("X-Pressio-Compressor"); got != "sz_threadsafe" {
		t.Errorf("X-Pressio-Compressor %q", got)
	}
	compressed := readAll(t, resp)
	if len(compressed) == 0 || len(compressed) >= len(raw) {
		t.Fatalf("compressed %d bytes from %d input bytes", len(compressed), len(raw))
	}

	resp = post(t, base+"/decompress?dims=32,32&dtype=float32", compressed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	dec := readAll(t, resp)
	if len(dec) != len(raw) {
		t.Fatalf("decompressed %d bytes, want %d", len(dec), len(raw))
	}
	for i := range vals {
		got := math.Float32frombits(binary.LittleEndian.Uint32(dec[4*i:]))
		if math.Abs(float64(got-vals[i])) > 0.01 {
			t.Fatalf("elem %d bound violated: %v vs %v", i, got, vals[i])
		}
	}
}

// oneRunSZ is a 47-byte float32 SZG1 stream of the value 2e-3 whose Huffman
// length table is one run of 2^24 codes of 24 bits (sz's test
// TestHuffmanTableCostSetByStream builds it).
const oneRunSZ = "535a4731010101fcd3c697ddc998a83f80808004001204c021010000080330eeaed0c45d74b668d043333e0000ffff"

// A stream whose Huffman header declares 2^24 symbols is served like any
// other: the codec's tables follow the header's runs, not its alphabet.
func TestDaemonDecompressesHugeHuffmanTable(t *testing.T) {
	base := serveTestDaemon(t, func(c *Config) { c.Compressor = "sz_threadsafe" })
	stream, err := hex.DecodeString(oneRunSZ)
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, base+"/decompress?dims=1&dtype=float32", stream)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || len(body) != 4 {
		t.Fatalf("status %d, %d bytes: %s", resp.StatusCode, len(body), body)
	}
	if got := math.Float32frombits(binary.LittleEndian.Uint32(body)); got != 2e-3 {
		t.Fatalf("decoded %v, want 2e-3", got)
	}
}

// TestDaemonParsesDimsAsCore pins the dims query parameter to
// core.ParseShape: a part that is not a number is a 400, and an empty part
// is skipped, so "4,,4" names the same 16 elements as "16" or "4,4".
func TestDaemonParsesDimsAsCore(t *testing.T) {
	base := serveTestDaemon(t, nil)
	for _, c := range []struct {
		dims string
		want int
	}{
		{"4,x", http.StatusBadRequest},
		{"", http.StatusBadRequest},
		{",", http.StatusBadRequest},
		{"16,16", http.StatusOK},
		{"4,,4", http.StatusOK},
	} {
		n := 256
		if c.dims == "4,,4" {
			n = 16
		}
		resp := post(t, base+"/compress?dtype=float32&dims="+c.dims, make([]byte, 4*n))
		readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("dims=%q: status %d, want %d", c.dims, resp.StatusCode, c.want)
		}
	}
}

func TestDaemonHealthReadyAndDrain(t *testing.T) {
	d, drain, done := startTestDaemon(t, func(c *Config) {
		c.LameDuck = 300 * time.Millisecond
	})
	base := "http://" + d.Addr()

	resp := post(t, base+"/compress?dims=4&dtype=float32", make([]byte, 16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	readAll(t, resp)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d, want 200", path, resp.StatusCode)
		}
		readAll(t, resp)
	}

	go drain()
	// During the lame-duck window the listener still answers: liveness stays
	// 200 while readiness flips to 503 so rolling restarts route away.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("/readyz unreachable during lame-duck: %v", err)
		}
		code := resp.StatusCode
		body := readAll(t, resp)
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(string(body), "draining") {
				t.Fatalf("/readyz body %q, want draining", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after drain start")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain %d, want 200 (liveness != readiness)", resp.StatusCode)
	}
	readAll(t, resp)

	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s, f := d.started.Load(), d.finished.Load(); s != f {
		t.Fatalf("drain dropped requests: %d started, %d finished", s, f)
	}
}

// An oversized declared body is shed by the byte bulkhead before a byte of
// it is read, on every route that takes a body.
func TestDaemonShedOversizedTyped503(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.MemBudget = 16
		c.StoreDir = t.TempDir()
	})
	for i, route := range []struct{ method, path string }{
		{"POST", "/compress?dims=16&dtype=float32"},
		{"PUT", "/objects/big?dims=16&dtype=float32"},
	} {
		resp := objReq(t, route.method, "http://"+d.Addr()+route.path, make([]byte, 64), nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d (%s), want 503", route.method, route.path, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Pressio-Error"); got != "shed" {
			t.Errorf("%s: X-Pressio-Error %q, want shed", route.path, got)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", route.path)
		}
		if got := trace.CounterValue(trace.BulkheadShedKey("compress")); got != int64(i+1) {
			t.Errorf("%s: compress bulkhead shed counter %d, want %d", route.path, got, i+1)
		}
	}
}

// A body of undeclared length would be admitted at weight zero, so it is
// refused with 411 before any of it is read, on every route that takes one.
func TestDaemonChunkedUploadLengthRequired(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.MemBudget = 1000
		c.QueueDepth = 0
		c.StoreDir = t.TempDir()
	})
	for _, route := range []struct{ method, path string }{
		{"POST", "/compress?dims=225&dtype=float32"},
		{"PUT", "/objects/chunked?dims=225&dtype=float32"},
	} {
		// Wrapping the reader hides its length from net/http, which then
		// sends Transfer-Encoding: chunked.
		req, err := http.NewRequest(route.method, "http://"+d.Addr()+route.path,
			struct{ io.Reader }{bytes.NewReader(make([]byte, 900))})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusLengthRequired {
			t.Errorf("%s %s: status %d (%s), want 411", route.method, route.path, resp.StatusCode, body)
		}
	}
	if got := trace.CounterValue(trace.CtrAdmissionAdmitted); got != 0 {
		t.Errorf("%d chunked uploads passed admission, want 0", got)
	}
}

// admitBody tells a body that outgrew the budget (413) from a client that
// went away mid-body (400), and hands the bulkhead back on both.
func TestAdmitBodyClassifiesReadErrors(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.MemBudget = 1000 })
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
	}{
		{"outgrew the budget", bytes.NewReader(make([]byte, 5000)), http.StatusRequestEntityTooLarge},
		{"client went away", io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest},
	} {
		r := httptest.NewRequest("POST", "/compress", tc.body)
		r.ContentLength = 10
		_, _, err := d.admitBody(r.Context(), httptest.NewRecorder(), r, "compress", nil)
		if err == nil {
			t.Fatalf("%s: body accepted", tc.name)
		}
		if _, status := errKind(err); status != tc.status {
			t.Errorf("%s: status %d (%v), want %d", tc.name, status, err, tc.status)
		}
		if used := d.compress.UsedBytes(); used != 0 {
			t.Errorf("%s: %d bytes still held in the bulkhead", tc.name, used)
		}
	}
}

// bytesAllocated returns the heap bytes f allocates, all goroutines counted.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A declared length past MemBudget is refused with 413 before a buffer of
// that size exists, even behind a bulkhead wide enough to admit it.
func TestAdmitBodyRefusesLengthPastMemBudget(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.MemBudget = 1000 })
	wide, err := service.NewBulkhead("compress", 1<<40, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.compress = wide
	r := httptest.NewRequest("POST", "/compress", strings.NewReader("abc"))
	r.ContentLength = 1 << 30
	var status int
	alloc := bytesAllocated(func() {
		_, _, err = d.admitBody(r.Context(), httptest.NewRecorder(), r, "compress", nil)
		_, status = errKind(err)
	})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared 1 GiB past a 1000-byte MemBudget: status %d (%v), want 413", status, err)
	}
	if alloc > 1<<20 {
		t.Fatalf("refusing a declared 1 GiB body allocated %d bytes", alloc)
	}
	if used := wide.UsedBytes(); used != 0 {
		t.Fatalf("%d bytes still held in the bulkhead", used)
	}
}

// A flate stream of 64 KiB that inflates to 64 MiB is refused at the 64
// bytes the request declares, not inflated whole: the request allocates at
// most 8x its body and declared output.
func TestDecompressBombBoundedByDeclaredOutput(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.Compressor = "flate" })
	var stream bytes.Buffer
	stream.Write([]byte{1, 4}) // the flate plugin's kind and element-size bytes
	fw, err := flate.NewWriter(&stream, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 64<<10)
	for range 1024 {
		if _, err := fw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	body := stream.Bytes()
	const declared = 16 * 4
	url := "http://" + d.Addr() + "/decompress?dims=16&dtype=float32"
	for round := range 2 { // the first round also pays for the connection
		var resp *http.Response
		alloc := bytesAllocated(func() { resp = post(t, url, body); readAll(t, resp) })
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("round %d: a %d-byte stream inflating to 64 MiB answered 200 for %d declared bytes", round, len(body), declared)
		}
		if limit := uint64(8 * (len(body) + declared)); round == 1 && alloc > limit {
			t.Fatalf("refusing the bomb allocated %d bytes, want at most %d", alloc, limit)
		}
	}
}

func TestDaemonBreakerOpenTyped503(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "faultinject"
		c.Breaker = true
		c.Options = []string{
			"faultinject:compressor=noop",
			"faultinject:error_rate=1",
			"faultinject:seed=1",
			"breaker:window=4",
			"breaker:failure_threshold=2",
			"breaker:open_ms=60000",
		}
	})
	base := "http://" + d.Addr()
	payload := make([]byte, 16)
	// The first two requests reach the always-failing child (typed faults),
	// then the shared circuit is open and requests are rejected up front.
	for i := 0; i < 2; i++ {
		resp := post(t, base+"/compress?dims=4&dtype=float32", payload)
		readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d status %d, want 500 (injected fault)", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Pressio-Error"); got != "fault" {
			t.Errorf("request %d X-Pressio-Error %q, want fault", i, got)
		}
	}
	resp := post(t, base+"/compress?dims=4&dtype=float32", payload)
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pressio-Error"); got != "breaker-open" {
		t.Errorf("X-Pressio-Error %q, want breaker-open", got)
	}
	if trace.CounterValue(trace.CtrBreakerOpened) != 1 {
		t.Errorf("opened counter %d, want 1", trace.CounterValue(trace.CtrBreakerOpened))
	}
}

func TestDaemonBadRequestMissingShape(t *testing.T) {
	d, _, _ := startTestDaemon(t, nil)
	resp := post(t, "http://"+d.Addr()+"/compress", make([]byte, 16))
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for missing dims/dtype", resp.StatusCode)
	}
}

func TestDaemonMetriczPrometheus(t *testing.T) {
	d, _, _ := startTestDaemon(t, nil)
	base := "http://" + d.Addr()
	readAll(t, post(t, base+"/compress?dims=4&dtype=float32", make([]byte, 16)))
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != trace.PromContentType {
		t.Errorf("/metricz Content-Type %q, want %q", ct, trace.PromContentType)
	}
	body := string(readAll(t, resp))
	for _, w := range []string{
		"# TYPE pressio_service_daemon_requests_total counter\npressio_service_daemon_requests_total 1\n",
		"# TYPE pressio_service_admission_admitted_total counter\npressio_service_admission_admitted_total 1\n",
		"# TYPE pressio_service_bulkhead_compress_queue_depth gauge\npressio_service_bulkhead_compress_queue_depth 0\n",
		"pressio_service_bulkhead_compress_used_bytes 0\n",
		"pressio_service_daemon_ready 1\n",
		"# TYPE pressio_service_daemon_latency_seconds histogram\n",
		"pressio_service_daemon_latency_seconds_bucket{le=\"+Inf\"} 1\n",
		"pressio_service_daemon_latency_seconds_count 1\n",
		"# TYPE pressio_goroutines gauge\n",
		"pressio_build_info{go_version=",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metricz missing %q:\n%s", w, body)
		}
	}
	// Every sample line must be well-formed exposition format.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp <= 0 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// Satellite: the health/metrics endpoints declare an explicit Content-Type
// and are uncacheable — a cached readiness answer misroutes rolling
// restarts.
func TestDaemonEndpointHeaders(t *testing.T) {
	d, _, _ := startTestDaemon(t, nil)
	base := "http://" + d.Addr()
	for path, wantCT := range map[string]string{
		"/healthz": "text/plain; charset=utf-8",
		"/readyz":  "text/plain; charset=utf-8",
		"/metricz": trace.PromContentType,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if got := resp.Header.Get("Content-Type"); got != wantCT {
			t.Errorf("%s Content-Type %q, want %q", path, got, wantCT)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s Cache-Control %q, want no-store", path, got)
		}
	}
}

func TestDaemonRequestIDAndTracez(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.Compressor = "sz_threadsafe"
		c.Options = []string{"pressio:abs=0.01"}
	})
	base := "http://" + d.Addr()
	_, raw := sampleFloat32(32 * 32)

	resp := post(t, base+"/compress?dims=32,32&dtype=float32", raw)
	readAll(t, resp)
	id := resp.Header.Get("X-Pressio-Request-Id")
	if len(id) != 32 {
		t.Fatalf("X-Pressio-Request-Id %q, want 32 hex digits", id)
	}
	tp := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(tp, "00-"+id+"-") {
		t.Fatalf("Traceparent %q does not carry the request id %q", tp, id)
	}

	// The span tree is retrievable by the returned id.
	tr, err := http.Get(base + "/tracez?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("/tracez?id= status %d", tr.StatusCode)
	}
	var entry struct {
		ID     string `json:"id"`
		Path   string `json:"path"`
		Status int    `json:"status"`
		Spans  []struct {
			Name   string `json:"name"`
			Parent uint64 `json:"parent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(readAll(t, tr), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.ID != id || entry.Path != "/compress" || entry.Status != 200 {
		t.Errorf("trace entry %+v", entry)
	}
	names := map[string]bool{}
	for _, sp := range entry.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"daemon.request", "daemon.admission", "daemon.read_body", "daemon.compress", "daemon.write_response"} {
		if !names[want] {
			t.Errorf("span tree missing %q: %v", want, names)
		}
	}

	// Tree rendering works too.
	tree, err := http.Get(base + "/tracez?id=" + id + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	treeBody := string(readAll(t, tree))
	if !strings.Contains(treeBody, "daemon.request") || !strings.Contains(treeBody, "  daemon.compress") {
		t.Errorf("tree rendering:\n%s", treeBody)
	}

	// The listing shows the request, newest first, without spans.
	list, err := http.Get(base + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Capacity int `json:"capacity"`
		Recent   []struct {
			ID string `json:"id"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(readAll(t, list), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Recent) == 0 || listing.Recent[0].ID != id {
		t.Errorf("listing %+v does not lead with %q", listing, id)
	}

	// Unknown ids 404.
	missing, err := http.Get(base + "/tracez?id=ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, missing)
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id status %d, want 404", missing.StatusCode)
	}
}

func TestDaemonPropagatesInboundTraceparent(t *testing.T) {
	d, _, _ := startTestDaemon(t, nil)
	const inbound = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", "http://"+d.Addr()+"/compress?dims=4&dtype=float32",
		bytes.NewReader(make([]byte, 16)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+inbound+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get("X-Pressio-Request-Id"); got != inbound {
		t.Errorf("request id %q, want propagated %q", got, inbound)
	}
}

func TestDaemonSlowRequestLogged(t *testing.T) {
	var buf syncBuffer
	obslog.SetDefault(obslog.New(&buf, slog.LevelDebug))
	defer obslog.SetDefault(nil)

	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.SlowRequest = time.Nanosecond // everything is slow
	})
	resp := post(t, "http://"+d.Addr()+"/compress?dims=4&dtype=float32", make([]byte, 16))
	readAll(t, resp)
	id := resp.Header.Get("X-Pressio-Request-Id")

	out := buf.String()
	if !strings.Contains(out, `"event":"slow_request"`) {
		t.Fatalf("no slow_request event:\n%s", out)
	}
	if !strings.Contains(out, `"request_id":"`+id+`"`) {
		t.Errorf("slow_request not correlated with request id %s:\n%s", id, out)
	}
}

func TestDaemonOpsListener(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) {
		c.OpsAddr = "127.0.0.1:0"
	})
	ops := "http://" + d.OpsAddr()
	for _, path := range []string{"/debug/pprof/", "/metricz", "/tracez", "/healthz"} {
		resp, err := http.Get(ops + path)
		if err != nil {
			t.Fatalf("ops %s: %v", path, err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ops %s status %d", path, resp.StatusCode)
		}
	}
	// pprof stays off the data plane.
	resp, err := http.Get("http://" + d.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ reachable on the data plane")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon logs from request
// goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonServesOpt: pressiod with -compressor opt tunes each request to
// the target ratio, and /decompress routes the stream back through the
// candidate that produced it.
func TestDaemonServesOpt(t *testing.T) {
	base := serveTestDaemon(t, func(c *Config) {
		c.Compressor = "opt"
		c.Options = []string{"opt:compressors=sz_threadsafe,zfp", "opt:target_ratio=8"}
	})
	vals, raw := sampleFloat32(64 * 64)
	resp := post(t, base+"/compress?dims=64,64&dtype=float32", raw)
	stream := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d: %s", resp.StatusCode, stream)
	}
	if ratio := float64(len(raw)) / float64(len(stream)); ratio < 8*0.9*0.95 || ratio > 8*1.1 {
		t.Fatalf("ratio %.2f, want 8 within the 10%% tolerance (less the frame)", ratio)
	}
	resp = post(t, base+"/decompress?dims=64,64&dtype=float32", stream)
	dec := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || len(dec) != len(raw) {
		t.Fatalf("decompress: status %d, %d bytes", resp.StatusCode, len(dec))
	}
	for i, v := range vals {
		if got := math.Float32frombits(binary.LittleEndian.Uint32(dec[4*i:])); math.Abs(float64(got-v)) > 0.1 {
			t.Fatalf("element %d: %v, sent %v", i, got, v)
		}
	}
}
