package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pressio/internal/core"
	"pressio/internal/daemon"
	"pressio/internal/launch"
	"pressio/internal/sdrbench"
	"pressio/internal/service"
	"pressio/internal/trace"

	// noop and flate, and the guard/fallback wrappers, registered by import.
	_ "pressio/internal/lossless"
	_ "pressio/internal/resilience"
)

// loadClient is the load generator's HTTP side: one http.Client for the whole
// run, capped at one connection per closed-loop client.
type loadClient struct {
	http *http.Client
	tr   *http.Transport
}

func newLoadClient() *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (lc *loadClient) close() { lc.tr.CloseIdleConnections() }

// call is one request's outcome: the status, and the time from building the
// request to the last byte of the reply (which is in the caller's buffer).
type call struct {
	status int
	dur    time.Duration
}

// do sends one request and reads the response fully into buf, so the
// connection goes back to the pool. Under a traced run it records the
// client.request span and hands the trace id to the daemon, whose own span
// tree for this request is merged in afterwards.
func (lc *loadClient) do(rt *trace.RequestTrace, method, url string, body []byte, rangeHdr string, buf *bytes.Buffer) (call, error) {
	sp := rt.Start(spanClientRequest, trace.Str("method", method), trace.Int("bytes_in", int64(len(body))))
	defer sp.End()
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	if rt != nil {
		req.Header.Set("Traceparent", rt.Traceparent())
	}
	resp, err := lc.http.Do(req)
	if err != nil {
		return call{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return call{}, err
	}
	return call{status: resp.StatusCode, dur: time.Since(start)}, nil
}

// baseConfig is what every in-process pressiod of the benchmark shares; the
// values are the pressiod command's defaults where it has one.
func baseConfig() daemon.Config {
	return daemon.Config{
		Addr:         "127.0.0.1:0",
		Concurrency:  serveClients,
		MemBudget:    1 << 30,
		QueueDepth:   64,
		ReqTimeout:   30 * time.Second,
		DrainTimeout: 10 * time.Second,
		TraceBuffer:  tracezDepth,
	}
}

// tracezDepth is how many request span trees a daemon retains, and so how
// many of a traced phase's last ops can be merged with the daemon's view.
const tracezDepth = 512

func startDaemon(cfg daemon.Config) (*daemon.Daemon, error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// composedCompressor builds, in process, the compressor stack a daemon with
// this configuration serves, as daemon.New does.
func composedCompressor(cfg daemon.Config) (*core.Compressor, error) {
	name, opts := service.ComposeResilience(cfg.Compressor, cfg.Guard, cfg.FallbackCSV, cfg.Breaker, cfg.Options)
	c, err := core.NewCompressor(name)
	if err != nil {
		return nil, err
	}
	kv := map[string]string{}
	for _, o := range opts {
		k, v, ok := strings.Cut(o, "=")
		if !ok {
			return nil, fmt.Errorf("bad option %q: want key=value", o)
		}
		kv[k] = v
	}
	if err := launch.ApplyStringOptions(c, kv); err != nil {
		return nil, err
	}
	return c, nil
}

// payload is one distinct request body and what the benchmark knows about it.
type payload struct {
	raw   []byte
	dims  []uint64
	query string
	// compressed is the daemon's answer to POST /compress of raw, taken and
	// checked during warm-up: the body of this payload's /decompress requests
	// and the reference later /compress answers are compared with.
	compressed []byte
}

func newPayload(d *core.Data) *payload {
	dims := d.Dims()
	parts := make([]string, len(dims))
	for i, v := range dims {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return &payload{
		raw:   d.Bytes(),
		dims:  dims,
		query: "?dims=" + strings.Join(parts, ",") + "&dtype=" + d.DType().String(),
	}
}

// noisePayloads are n seeded float32 vectors of the given byte size. The
// codec behind them is noop, so their content only has to differ: distinct
// payloads hash to distinct ring positions.
func noisePayloads(seed int64, n, size int) []*payload {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*payload, n)
	for i := range out {
		vals := make([]float32, size/4)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		out[i] = newPayload(core.FromFloat32s(vals))
	}
	return out
}

// serveWorkload is callers of pressiod: serveClients closed-loop clients,
// each sending its next request when the previous reply is complete.
type serveWorkload struct {
	cfg      daemon.Config
	routed   bool
	payloads func(seed int64) []*payload
	// writeShare is the share of requests that are POST /compress.
	writeShare float64
	// lossy says replies are compared within absBound instead of byte-exact.
	lossy bool
	// warmOps is the number of untimed requests each client sends after every
	// payload has been through one checked round trip.
	warmOps int

	pool   []*payload
	front  *daemon.Daemon
	shards []*daemon.Daemon
	lc     *loadClient
	local  *core.Compressor
	rngs   []*rand.Rand
	bufs   []*bytes.Buffer
	inB    int64
	outB   int64
}

func newServeLarge() *serveWorkload {
	cfg := baseConfig()
	cfg.Compressor = "sz_threadsafe"
	cfg.Options = []string{"pressio:abs=" + strconv.FormatFloat(absBound, 'g', -1, 64)}
	return &serveWorkload{
		cfg: cfg, writeShare: 2.0 / 3, lossy: true, warmOps: 8,
		payloads: func(seed int64) []*payload {
			// 16 x 128 x 128 float32 = 1 MiB; four distinct fields so the
			// daemon never sees one buffer only.
			out := make([]*payload, 4)
			for i := range out {
				out[i] = newPayload(sdrbench.ScaleLetKF(16, 128, 128, seed+int64(i)))
			}
			return out
		},
	}
}

func newServeSmall() *serveWorkload {
	cfg := baseConfig()
	cfg.Compressor = "noop"
	cfg.Guard, cfg.Breaker, cfg.FallbackCSV = true, true, "flate"
	return &serveWorkload{
		cfg: cfg, writeShare: 0.75, warmOps: 2000,
		payloads: func(seed int64) []*payload { return noisePayloads(seed, 64, 4<<10) },
	}
}

func newServeRouted() *serveWorkload {
	cfg := baseConfig()
	cfg.Compressor = "noop"
	return &serveWorkload{
		cfg: cfg, routed: true, writeShare: 0.75, warmOps: 500,
		payloads: func(seed int64) []*payload { return noisePayloads(seed, 64, 64<<10) },
	}
}

func (w *serveWorkload) clients() int { return serveClients }
func (w *serveWorkload) cycle() int   { return 1 }
func (w *serveWorkload) group() int   { return 1 }

func (w *serveWorkload) ratio() float64 { return float64(w.inB) / float64(w.outB) }

func (w *serveWorkload) frontURL() string { return "http://" + w.front.Addr() }

// traceSources names the daemons whose /tracez holds this workload's spans:
// the one the clients talk to, then the shards behind it.
func (w *serveWorkload) traceSources() (front string, shards []string) {
	for _, s := range w.shards {
		shards = append(shards, "http://"+s.Addr())
	}
	return w.frontURL(), shards
}

func (w *serveWorkload) setup(seed int64) error {
	w.pool = w.payloads(seed)
	w.lc = newLoadClient()
	w.rngs, w.bufs = nil, nil
	for c := 0; c < serveClients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*31+int64(c))))
		w.bufs = append(w.bufs, new(bytes.Buffer))
	}
	local, err := composedCompressor(w.cfg)
	if err != nil {
		return err
	}
	w.local = local

	frontCfg := w.cfg
	w.shards = nil
	if w.routed {
		var peers []string
		for i := 0; i < 2; i++ {
			s, err := startDaemon(w.cfg)
			if err != nil {
				return err
			}
			w.shards = append(w.shards, s)
			peers = append(peers, s.Addr())
		}
		frontCfg.RouterPeers = strings.Join(peers, ",")
		frontCfg.RouterReplicas = 2
		frontCfg.RouterHealthInterval = 100 * time.Millisecond
	}
	if w.front, err = startDaemon(frontCfg); err != nil {
		return err
	}
	if err := waitReady(w.lc, w.frontURL()); err != nil {
		return err
	}

	// One checked round trip per payload: it yields the /decompress bodies,
	// the ratio (the same inputs every run) and a warm codec.
	w.inB, w.outB = 0, 0
	for _, p := range w.pool {
		c, err := w.lc.do(nil, http.MethodPost, w.frontURL()+"/compress"+p.query, p.raw, "", w.bufs[0])
		if err != nil || c.status != http.StatusOK {
			return fmt.Errorf("warm-up /compress: status %d: %v", c.status, err)
		}
		p.compressed = bytes.Clone(w.bufs[0].Bytes())
		w.inB += int64(len(p.raw))
		w.outB += int64(len(p.compressed))
		if res := w.request(0, p, false, nil); !res.ok {
			return fmt.Errorf("warm-up /decompress failed its check")
		}
	}
	if attempted, failed := runOps(w, w.warmOps); failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", failed, attempted)
	}
	return nil
}

// waitReady polls /readyz: a router answers 503 until its health checker has
// classified the shards.
func waitReady(lc *loadClient, base string) error {
	var buf bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := lc.do(nil, http.MethodGet, base+"/readyz", nil, "", &buf)
		if err == nil && c.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready: status %d: %v", base, c.status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *serveWorkload) op(c, _ int, rt *trace.RequestTrace) opResult {
	rng := w.rngs[c]
	write := rng.Float64() < w.writeShare
	p := w.pool[rng.Intn(len(w.pool))]
	return w.request(c, p, write, rt)
}

// request sends one /compress or /decompress and checks the reply.
func (w *serveWorkload) request(c int, p *payload, write bool, rt *trace.RequestTrace) opResult {
	buf := w.bufs[c]
	if write {
		res := opResult{kind: opWrite, bytes: len(p.raw)}
		call, err := w.lc.do(rt, http.MethodPost, w.frontURL()+"/compress"+p.query, p.raw, "", buf)
		if err != nil || call.status != http.StatusOK {
			return res
		}
		res.dur = call.dur
		res.ok = bytes.Equal(buf.Bytes(), p.compressed) || w.decodes(buf.Bytes(), p)
		return res
	}
	res := opResult{kind: opRead, bytes: len(p.raw)}
	call, err := w.lc.do(rt, http.MethodPost, w.frontURL()+"/decompress"+p.query, p.compressed, "", buf)
	if err != nil || call.status != http.StatusOK {
		return res
	}
	res.dur = call.dur
	res.ok = w.matches(p, buf.Bytes())
	return res
}

// matches checks a decompressed reply: within the bound for a lossy codec,
// byte-exact otherwise.
func (w *serveWorkload) matches(p *payload, got []byte) bool {
	if !w.lossy {
		return bytes.Equal(got, p.raw)
	}
	want, err1 := float32View(p.raw, uint64(len(p.raw)/4))
	have, err2 := float32View(got, uint64(len(got)/4))
	return err1 == nil && err2 == nil && withinAbs(want, have, absBound)
}

// decodes is the slow path of the /compress check, for a reply that differs
// from the warm-up reference: it must still decode, through the same composed
// compressor the daemon serves, to the payload.
func (w *serveWorkload) decodes(stream []byte, p *payload) bool {
	out, err := core.Decompress(w.local, core.NewBytes(bytes.Clone(stream)), core.DTypeFloat32, p.dims...)
	return err == nil && w.matches(p, out.Bytes())
}

func (w *serveWorkload) teardown() (int, int, error) {
	var first error
	for _, d := range append([]*daemon.Daemon{w.front}, w.shards...) {
		if d == nil {
			continue
		}
		if err := d.Drain(); err != nil && first == nil {
			first = err
		}
	}
	if w.lc != nil {
		w.lc.close()
	}
	w.front, w.shards = nil, nil
	return 0, 0, first
}

func (w *serveWorkload) httpClient() *loadClient { return w.lc }
