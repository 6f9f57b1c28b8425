package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pressio/internal/cluster"
	"pressio/internal/core"
	"pressio/internal/obslog"
	"pressio/internal/service"
	"pressio/internal/trace"
)

// Response headers. Every endpoint sets an explicit Content-Type, and the
// health/metrics endpoints are marked no-store: a cached readiness answer or
// a cached metrics scrape is actively misleading.
const (
	headerRequestID  = "X-Pressio-Request-Id"
	headerCompressor = "X-Pressio-Compressor"
	headerError      = "X-Pressio-Error"
	textContentType  = "text/plain; charset=utf-8"
)

func setNoStore(w http.ResponseWriter, contentType string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-store")
}

// errKind classifies an error the way writeError will report it, so logging
// and the HTTP shape agree.
func errKind(err error) (kind string, status int) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, errLengthRequired):
		return "length-required", http.StatusLengthRequired
	case errors.As(err, &tooLarge):
		return "too-large", http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrShed):
		kind = "shed"
		if errors.Is(err, service.ErrBreakerOpen) {
			kind = "breaker-open"
		}
		return kind, http.StatusServiceUnavailable
	case errors.Is(err, core.ErrInvalidOption):
		return "bad-request", http.StatusBadRequest
	default:
		return "fault", http.StatusInternalServerError
	}
}

// writeError maps an error to its HTTP shape. Overload rejections — anything
// wrapping core.ErrShed, including open-breaker rejections — become typed
// 503s with Retry-After, so clients can tell "back off" from "broken".
func writeError(w http.ResponseWriter, err error) int {
	kind, status := errKind(err)
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
		w.Header().Set(headerError, kind)
	case http.StatusInternalServerError:
		w.Header().Set(headerError, kind)
	}
	http.Error(w, err.Error(), status)
	return status
}

// parseShape reads the dims and dtype query parameters every data-plane
// request must carry (compressed streams are not self-describing).
func parseShape(q map[string][]string) (core.DType, []uint64, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	dimsParam, dtypeParam := get("dims"), get("dtype")
	if dimsParam == "" || dtypeParam == "" {
		return 0, nil, errors.New("dims and dtype query parameters are required")
	}
	dtype, err := core.ParseDType(dtypeParam)
	if err != nil {
		return 0, nil, err
	}
	parts := strings.Split(dimsParam, ",")
	dims := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("bad dims %q: %v", dimsParam, err)
		}
		dims = append(dims, v)
	}
	return dtype, dims, nil
}

// errLengthRequired rejects a body of undeclared length (Transfer-Encoding:
// chunked). Admission weighs a request by its declared bytes, so such a body
// would pass the byte bulkhead at weight zero however large it turned out.
var errLengthRequired = errors.New("Content-Length required: admission weighs a request by its declared size")

// admitBody is the one way a request body enters the daemon: refuse an
// undeclared length before reading a byte, take the op's bulkhead at the
// declared length, then read exactly that many bytes into one buffer of that
// size. The caller releases the bulkhead when the work is done. Errors are
// already classified for writeError: 411, a typed 503 shed, 413 for a
// declared length past MemBudget or a body that runs past its declared
// length, and 400 for any other read failure (the client went away
// mid-body, or sent fewer bytes than it declared).
func (d *Daemon) admitBody(ctx context.Context, w http.ResponseWriter, r *http.Request, op string, parent *trace.RequestSpan) (body []byte, release func(), err error) {
	if r.ContentLength < 0 {
		return nil, nil, errLengthRequired
	}
	bh := d.compress
	if op == cluster.OpDecompress {
		bh = d.decompress
	}
	sp := parent.Child("daemon.admission", trace.Str("bulkhead", op))
	release, err = bh.Acquire(ctx, r.ContentLength)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	// The bulkhead sheds a weight past its own budget; this keeps the buffer
	// within MemBudget whatever budget the bulkhead was given.
	if r.ContentLength > d.cfg.MemBudget {
		release()
		return nil, nil, &http.MaxBytesError{Limit: d.cfg.MemBudget}
	}
	sp = parent.Child("daemon.read_body")
	// One spare byte of capacity lets a read past the declared length show
	// without a second buffer: the reader allows ContentLength bytes, and
	// any byte more is its MaxBytesError.
	body = make([]byte, r.ContentLength, r.ContentLength+1)
	lr := http.MaxBytesReader(w, r.Body, r.ContentLength)
	if _, err = io.ReadFull(lr, body); err == nil {
		if _, err = lr.Read(body[len(body):cap(body)]); err == io.EOF {
			err = nil
		}
	}
	sp.End()
	if err != nil {
		release()
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			err = fmt.Errorf("%w: reading request body: %w", core.ErrInvalidOption, err)
		}
		return nil, nil, err
	}
	return body, release, nil
}

// handleData is the shared data-plane path: request trace setup, admission,
// pool checkout, codec call, response. Admission weight is the declared
// Content-Length, so the bulkhead budget bounds resident request bytes, not
// request count.
//
// Every request gets a W3C-compatible trace id (propagated from an inbound
// traceparent header when present, minted otherwise), returned in the
// X-Pressio-Request-Id and Traceparent response headers. The per-stage span
// tree is retrievable afterwards from /tracez?id=<id>.
//
//pressio:hotpath measured by the benchmark's daemon.* per-layer rows
func (d *Daemon) handleData(w http.ResponseWriter, r *http.Request, op string) {
	inbound, _ := ParseRequestID(r)
	rt := trace.NewRequestTrace(inbound)
	root := rt.Start("daemon.request",
		trace.Str("op", op),
		trace.Str("path", r.URL.Path),
		trace.Int("content_length", r.ContentLength))
	w.Header().Set(headerRequestID, rt.TraceID())
	w.Header().Set("Traceparent", rt.Traceparent())

	begin := time.Now()
	status := http.StatusOK
	d.started.Add(1)
	defer func() {
		d.finished.Add(1)
		if d.draining.Load() {
			trace.CounterAdd(trace.CtrDaemonDrained, 1)
		}
		root.End()
		dur := time.Since(begin)
		trace.ObserveDuration(trace.HistDaemonRequest, dur)
		d.traces.add(rt, r.Method, r.URL.Path, status, begin, dur)
		if d.cfg.SlowRequest > 0 && dur >= d.cfg.SlowRequest {
			obslog.Default().Warnw("slow_request",
				obslog.Str("request_id", rt.TraceID()),
				obslog.Str("op", op),
				obslog.Str("path", r.URL.Path),
				obslog.Int("status", int64(status)),
				obslog.Dur("latency", dur),
				obslog.Dur("threshold", d.cfg.SlowRequest))
		}
	}()
	trace.CounterAdd(trace.CtrDaemonRequests, 1)

	// The request trace rides the context through the admission/codec stack.
	ctx := trace.WithRequestTrace(r.Context(), rt)
	if d.cfg.ReqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.ReqTimeout)
		defer cancel()
	}

	dtype, dims, err := parseShape(r.URL.Query())
	if err != nil {
		status = http.StatusBadRequest
		http.Error(w, err.Error(), status)
		return
	}

	body, release, err := d.admitBody(ctx, w, r, op, root)
	if err != nil {
		status = writeError(w, err)
		if status == http.StatusServiceUnavailable {
			kind, _ := errKind(err)
			obslog.Default().Warnw("request.shed",
				obslog.Str("request_id", rt.TraceID()),
				obslog.Str("op", op),
				obslog.Str("kind", kind))
		}
		return
	}
	defer release()

	var outBytes []byte
	if d.route != nil {
		// Router mode: the request fans out across the ring (hedging and
		// failover inside). The request trace rides ctx, so peer hops carry
		// this request's trace id in their Traceparent headers.
		sp := root.Child("daemon.route", trace.Int("bytes_in", int64(len(body))))
		if op == cluster.OpDecompress {
			outBytes, err = d.route.Decompress(ctx, dtype, dims, body)
		} else {
			outBytes, err = d.route.Compress(ctx, dtype, dims, body)
		}
		sp.End()
	} else {
		var out *core.Data
		if out, err = d.localData(ctx, root, op, dtype, dims, body); err == nil {
			outBytes = out.Bytes()
		}
	}
	if err != nil {
		status = writeError(w, err)
		kind, _ := errKind(err)
		lvl, event := obslog.Error, "request.fault"
		if status == http.StatusServiceUnavailable {
			lvl, event = obslog.Warn, "request.shed"
		}
		obslog.Default().Event(lvl, event,
			obslog.Str("request_id", rt.TraceID()),
			obslog.Str("op", op),
			obslog.Str("kind", kind),
			obslog.Err(err))
		return
	}

	sp := root.Child("daemon.write_response", trace.Int("bytes_out", int64(len(outBytes))))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerCompressor, d.name)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(outBytes)
	sp.End()
}

// localData runs one operation against the local compressor pool with the
// single-node span structure (pool_wait, then the codec call) parented
// under parent. It serves both the direct path and, via localBytes, the
// router's whole-fleet-unreachable degradation path.
func (d *Daemon) localData(ctx context.Context, parent *trace.RequestSpan, op string, dtype core.DType, dims []uint64, body []byte) (*core.Data, error) {
	sp := parent.Child("daemon.pool_wait")
	var comp *core.Compressor
	select {
	case comp = <-d.pool:
		sp.End()
	case <-ctx.Done():
		sp.End()
		return nil, fmt.Errorf("daemon: %w: context ended waiting for a worker: %v", core.ErrShed, ctx.Err())
	}
	defer func() { d.pool <- comp }()

	sp = parent.Child("daemon."+op, trace.Int("bytes_in", int64(len(body))))
	defer sp.End()
	if op == cluster.OpDecompress {
		out := core.NewEmpty(dtype, dims...)
		if err := comp.Decompress(core.NewBytes(body), out); err != nil {
			return nil, err
		}
		return out, nil
	}
	in, err := core.NewMove(dtype, body, dims...)
	if err != nil {
		// A payload/shape mismatch is the caller's fault: classify it so
		// writeError answers 400, not 500.
		return nil, fmt.Errorf("%w: %v", core.ErrInvalidOption, err)
	}
	out := core.NewEmpty(core.DTypeByte, 0)
	if err := comp.Compress(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// localBytes adapts localData to the router's LocalFunc degradation hook.
func (d *Daemon) localBytes(ctx context.Context, op string, dtype core.DType, dims []uint64, body []byte) ([]byte, error) {
	sp := trace.RequestTraceFrom(ctx).Start("daemon.local_fallback", trace.Str("op", op))
	out, err := d.localData(ctx, sp, op, dtype, dims, body)
	sp.End()
	if err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ParseRequestID extracts the W3C trace id from an inbound request: the
// traceparent header when valid, else an X-Pressio-Request-Id carrying a
// bare 32-hex trace id, else "".
func ParseRequestID(r *http.Request) (string, bool) {
	if id, ok := trace.ParseTraceparent(r.Header.Get("Traceparent")); ok {
		return id, true
	}
	if id := r.Header.Get(headerRequestID); id != "" {
		// NewRequestTrace validates; pass it through and let a malformed id
		// be replaced there.
		return id, true
	}
	return "", false
}

// handleHealthz is liveness: the process is up, even while draining.
func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	setNoStore(w, textContentType)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: false from the instant a drain begins (so
// rolling restarts route new work elsewhere while in-flight work finishes)
// and false while any started component reports unready — in router mode
// that aggregates the health checker's first sweep and the router's
// can-serve state.
func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	setNoStore(w, textContentType)
	if !d.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !d.comps.ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// gauges samples the daemon's live state for exposition: bulkhead queue
// depths and resident bytes, free pool slots, plus runtime and build info.
func (d *Daemon) gauges() []trace.Gauge {
	gs := []trace.Gauge{
		{Name: "service.bulkhead.compress.queue_depth", Help: "requests queued at the compress bulkhead", Value: float64(d.compress.QueueDepth())},
		{Name: "service.bulkhead.compress.used_bytes", Help: "declared bytes admitted through the compress bulkhead", Value: float64(d.compress.UsedBytes())},
		{Name: "service.bulkhead.decompress.queue_depth", Help: "requests queued at the decompress bulkhead", Value: float64(d.decompress.QueueDepth())},
		{Name: "service.bulkhead.decompress.used_bytes", Help: "declared bytes admitted through the decompress bulkhead", Value: float64(d.decompress.UsedBytes())},
		{Name: "service.daemon.pool_free", Help: "idle compressor clones in the pool", Value: float64(len(d.pool))},
		{Name: "service.daemon.ready", Help: "1 while serving, 0 while draining", Value: b2f(d.ready.Load())},
	}
	gs = append(gs, trace.RuntimeGauges()...)
	gs = append(gs, trace.BuildInfoGauge(service.Version))
	return gs
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetricz exposes the whole telemetry registry. The default rendering
// is Prometheus text exposition format (version 0.0.4): counters as _total
// series, latency histograms as cumulative _bucket/_sum/_count series in
// seconds, plus live daemon gauges, Go runtime stats, and build info.
// ?format=json keeps the machine-readable JSON rendering for tooling that
// predates the exposition format.
func (d *Daemon) handleMetricz(w http.ResponseWriter, r *http.Request) {
	gs := d.gauges()
	if r.URL.Query().Get("format") == "json" {
		setNoStore(w, "application/json")
		_ = trace.WriteMetricsJSON(w, gs...)
		return
	}
	setNoStore(w, trace.PromContentType)
	_ = trace.WritePrometheus(w, gs...)
}
