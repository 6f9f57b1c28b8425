// Package daemon implements the pressiod compression service: a pool of
// compressor clones behind per-operation bulkheads, an HTTP data plane with
// overload protection and graceful drain, and a production observability
// surface — request-scoped span trees correlated by W3C trace ids,
// Prometheus-format metrics, structured JSON-lines event logs, and an
// ops-only listener carrying pprof. cmd/pressiod is a thin flag wrapper
// around this package; the benchmark (benchmark/) drives it in-process to
// measure serving latency.
package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"pressio/internal/cluster"
	"pressio/internal/core"
	"pressio/internal/launch"
	"pressio/internal/obslog"
	"pressio/internal/service"
	"pressio/internal/store"
	"pressio/internal/trace"
)

// Config collects everything the daemon needs to serve: which compressor
// stack to build, how much concurrency and memory to admit, how long a drain
// may take, and the observability knobs.
type Config struct {
	// Addr is the data-plane listen address.
	Addr string
	// OpsAddr, when non-empty, binds a second ops-only listener carrying
	// /debug/pprof, /metricz, /tracez, and /healthz. Keep it off the
	// data-plane network: profiling endpoints are for operators.
	OpsAddr string
	// Compressor is the innermost compressor plugin name.
	Compressor string
	// Guard wraps the compressor in the guard meta-compressor.
	Guard bool
	// FallbackCSV lists backup compressors tried in order.
	FallbackCSV string
	// Breaker wraps the composition in the circuit-breaker meta-compressor.
	Breaker bool
	// Options are key=value compressor options.
	Options []string
	// Concurrency is the compressor pool size.
	Concurrency int
	// MemBudget is the admission budget per bulkhead in declared bytes.
	MemBudget int64
	// QueueDepth is the bounded FIFO queue length per bulkhead.
	QueueDepth int
	// ReqTimeout is the per-request deadline (0 disables).
	ReqTimeout time.Duration
	// DrainTimeout bounds how long in-flight requests may run after drain
	// starts.
	DrainTimeout time.Duration
	// LameDuck keeps the listener open after drain starts while /readyz
	// reports 503, so load balancers route away before connections break.
	LameDuck time.Duration
	// SlowRequest, when >0, emits a warn-level slow_request event for any
	// data-plane request slower than this.
	SlowRequest time.Duration
	// TraceBuffer is how many completed request span trees /tracez retains
	// (default 256).
	TraceBuffer int

	// RouterPeers, when non-empty, switches the daemon into router mode: a
	// CSV of pressiod shard addresses ("host:port,...") that data-plane
	// requests are consistent-hash-routed across (with hedging, failover,
	// and health-driven placement) instead of compressed locally. The local
	// compressor pool remains as the degradation path unless RouterNoLocal.
	RouterPeers string
	// RouterReplicas is the replica-set size per key (default 2).
	RouterReplicas int
	// RouterVNodes is the virtual-node count per peer on the hash ring
	// (default cluster.DefaultVirtualNodes).
	RouterVNodes int
	// RouterHedgeAfter is the hedge-delay floor: a hedge to the next
	// replica launches after max(this, peer p99) (default 25ms).
	RouterHedgeAfter time.Duration
	// RouterHealthInterval is the peer /readyz poll period (default 1s).
	RouterHealthInterval time.Duration
	// RouterNoLocal disables degradation to local compression when the
	// whole fleet is unreachable; such requests shed with a typed 503.
	RouterNoLocal bool
	// PeerTimeout is the per-attempt deadline on router→peer calls
	// (default 10s).
	PeerTimeout time.Duration

	// StoreDir, when non-empty, serves the crash-consistent compressed
	// object store rooted there behind /objects (see docs/STORE.md). Crash
	// recovery runs during Start, ahead of the listener; /readyz reports 503
	// until it completes.
	StoreDir string
	// ScrubInterval is the background scrub period for the object store
	// (0 disables the scrubber; bit rot is then only caught by reads and
	// pressio-fsck).
	ScrubInterval time.Duration
	// StoreCheckpointBytes is the journal size that triggers an automatic
	// manifest checkpoint (0 = store default, negative disables).
	StoreCheckpointBytes int64
}

// Daemon is the running service.
type Daemon struct {
	cfg        Config
	name       string // composed compressor name (breaker outermost)
	srv        *http.Server
	ln         net.Listener
	opsSrv     *http.Server
	opsLn      net.Listener
	pool       chan *core.Compressor
	compress   *service.Admission
	decompress *service.Admission
	traces     *traceStore

	// Router mode: requests route across the peer fleet. The data plane
	// calls the router through the dataRouter interface, not the concrete
	// type: handleData is //pressio:hotpath-marked for the local compression
	// path — a routed request's cost is the peer round-trip, so the hot-path
	// contract (and hotalloc's closure) deliberately ends at this dispatch
	// boundary.
	router *cluster.Router
	route  dataRouter
	health *cluster.HealthChecker

	// comps is what Start brings up and Drain takes down, in order.
	comps startList

	// Object-store mode: recovery-gated persistent storage behind /objects.
	store    *store.Store
	scrubber *store.Scrubber

	ready    atomic.Bool
	draining atomic.Bool

	// started/finished account for every data-plane request the server began
	// processing; drain is correct iff they are equal when Drain returns.
	started  atomic.Int64
	finished atomic.Int64
}

// dataRouter is the slice of the cluster router the request path uses.
type dataRouter interface {
	Compress(ctx context.Context, dtype core.DType, dims []uint64, payload []byte) ([]byte, error)
	Decompress(ctx context.Context, dtype core.DType, dims []uint64, payload []byte) ([]byte, error)
}

// New builds the compressor pool and bulkheads. The resilience flags compose
// exactly as in the pressio CLI: breaker{guard{fallback{codec}}}.
func New(cfg Config) (*Daemon, error) {
	if cfg.Concurrency < 1 {
		return nil, fmt.Errorf("concurrency %d must be >= 1", cfg.Concurrency)
	}
	if cfg.TraceBuffer <= 0 {
		cfg.TraceBuffer = 256
	}
	name, opts := service.ComposeResilience(cfg.Compressor, cfg.Guard, cfg.FallbackCSV, cfg.Breaker, cfg.Options)
	base, err := core.NewCompressor(name)
	if err != nil {
		return nil, err
	}
	if err := launch.ApplyOptionFlags(base, opts); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, name: name, traces: newTraceStore(cfg.TraceBuffer)}
	// Clones share breaker scope state by construction, so one worker's
	// failures trip the circuit for the whole pool.
	d.pool = make(chan *core.Compressor, cfg.Concurrency)
	d.pool <- base
	for i := 1; i < cfg.Concurrency; i++ {
		d.pool <- base.Clone()
	}
	if d.compress, err = service.NewBulkhead("compress", cfg.MemBudget, cfg.QueueDepth, nil); err != nil {
		return nil, err
	}
	if d.decompress, err = service.NewBulkhead("decompress", cfg.MemBudget, cfg.QueueDepth, nil); err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /compress", func(w http.ResponseWriter, r *http.Request) {
		d.handleData(w, r, cluster.OpCompress)
	})
	mux.HandleFunc("POST /decompress", func(w http.ResponseWriter, r *http.Request) {
		d.handleData(w, r, cluster.OpDecompress)
	})
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /metricz", d.handleMetricz)
	mux.HandleFunc("GET /tracez", d.handleTracez)
	if cfg.StoreDir != "" {
		mux.HandleFunc("PUT /objects/{name...}", d.handleObjectPut)
		mux.HandleFunc("GET /objects/{name...}", d.handleObjectGet)
		mux.HandleFunc("DELETE /objects/{name...}", d.handleObjectDelete)
		mux.HandleFunc("GET /objects", d.handleObjectList)
		mux.HandleFunc("GET /objects/{$}", d.handleObjectList)
	}
	d.srv = &http.Server{Handler: mux}

	if cfg.OpsAddr != "" {
		d.opsSrv = &http.Server{Handler: d.opsMux()}
	}

	// The start list. The object store (when configured) comes first: crash
	// recovery must finish before the first /objects request, and, stopping
	// in reverse, its checkpoint-and-close runs only after the listener has
	// fully drained. Router mode puts health checker → router ahead of the
	// listener, so the ring is classified before traffic can arrive.
	if cfg.StoreDir != "" {
		d.comps.comps = append(d.comps.comps, component{"store", d.startStore, d.stopStore, d.storeReady})
	}
	if cfg.RouterPeers != "" {
		var local cluster.LocalFunc
		if !cfg.RouterNoLocal {
			local = d.localBytes
		}
		d.router, err = cluster.NewRouter(cluster.RouterConfig{
			Peers:      splitCSV(cfg.RouterPeers),
			Replicas:   cfg.RouterReplicas,
			VNodes:     cfg.RouterVNodes,
			HedgeFloor: cfg.RouterHedgeAfter,
			Peer:       cluster.PeerConfig{Timeout: cfg.PeerTimeout},
			Local:      local,
		})
		if err != nil {
			return nil, err
		}
		d.route = d.router
		d.health = cluster.NewHealthChecker(d.router, cfg.RouterHealthInterval)
		d.comps.comps = append(d.comps.comps,
			component{"health", d.health.Start, d.health.Stop, d.health.Ready},
			component{"router", d.router.Start, d.router.Stop, d.router.Ready})
	}
	d.comps.comps = append(d.comps.comps, component{"listener", d.startListener, d.stopListener, nil})
	return d, nil
}

// splitCSV parses a comma-separated peer list, trimming blanks.
func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// startListener binds the data plane and serves it.
func (d *Daemon) startListener(context.Context) error {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return err
	}
	d.ln = ln
	//lint:ignore goroutineleak process-lifetime serve loop; stopListener shuts the server down, which Serve observes
	go func() {
		// ErrServerClosed is the expected outcome of a drain; anything else
		// surfaces through failed client requests, not the exit status.
		_ = d.srv.Serve(ln)
	}()
	return nil
}

// stopListener is the graceful drain of the data plane (lame-duck window,
// then bounded Shutdown). It is the last component, so it stops first:
// traffic ends before the router and health checker go away.
func (d *Daemon) stopListener(context.Context) error {
	if d.cfg.LameDuck > 0 {
		time.Sleep(d.cfg.LameDuck)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if err != nil {
		_ = d.srv.Close()
		err = fmt.Errorf("drain deadline %s exceeded: %w", d.cfg.DrainTimeout, err)
	}
	return err
}

// opsMux is the operator surface: pprof (never on the data plane), plus the
// same metrics/trace/liveness endpoints so operators need only one port.
func (d *Daemon) opsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metricz", d.handleMetricz)
	mux.HandleFunc("GET /tracez", d.handleTracez)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	return mux
}

// Start brings the daemon's components up in order (in router mode the
// health checker classifies the fleet before the listener accepts traffic);
// it returns once the daemon is accepting connections so callers (and tests)
// can read Addr().
func (d *Daemon) Start() error {
	if d.opsSrv != nil {
		opsLn, err := net.Listen("tcp", d.cfg.OpsAddr)
		if err != nil {
			return err
		}
		d.opsLn = opsLn
		//lint:ignore goroutineleak process-lifetime serve loop; Drain/Close shuts the listener down, which Serve observes
		go func() { _ = d.opsSrv.Serve(opsLn) }()
	}
	if err := d.comps.start(context.Background()); err != nil {
		if d.opsLn != nil {
			_ = d.opsLn.Close()
		}
		return err
	}
	d.ready.Store(true)
	ev := []any{
		slog.String("addr", d.Addr()),
		slog.String("ops_addr", d.OpsAddr()),
		slog.String("compressor", d.name),
		slog.Int("concurrency", d.cfg.Concurrency),
	}
	if d.router != nil {
		ev = append(ev,
			slog.String("mode", "router"),
			slog.String("ring", d.router.Ring().String()),
			slog.String("components", d.comps.String()))
	}
	obslog.Default().Info("daemon.start", ev...)
	return nil
}

// Name reports the composed compressor name (breaker outermost).
func (d *Daemon) Name() string { return d.name }

// Addr reports the bound data-plane address (useful with ":0" in tests).
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// OpsAddr reports the bound ops listener address ("" when disabled).
func (d *Daemon) OpsAddr() string {
	if d.opsLn == nil {
		return ""
	}
	return d.opsLn.Addr().String()
}

// Drain implements graceful shutdown: readiness flips false immediately (so
// rolling restarts stop routing new work here), a lame-duck window keeps the
// listener open while load balancers notice, then the listener closes and
// in-flight requests get until the drain deadline to finish. The ops
// listener closes last — operators can still scrape a draining process.
func (d *Daemon) Drain() error {
	d.ready.Store(false)
	d.draining.Store(true)
	obslog.Default().Info("daemon.drain.begin",
		obslog.Dur("lame_duck", d.cfg.LameDuck),
		obslog.Dur("deadline", d.cfg.DrainTimeout))
	// Reverse start order: the listener drains first (lame-duck window, then
	// bounded Shutdown inside its Stop), then the router and health checker
	// unwind in router mode.
	err := d.comps.stop(context.Background())
	if d.opsSrv != nil {
		_ = d.opsSrv.Close()
	}
	obslog.Default().Info("daemon.drain.end",
		slog.Int64("served", d.started.Load()),
		slog.Int64("drained_in_flight", trace.CounterValue(trace.CtrDaemonDrained)),
		obslog.Err(err))
	return err
}

// Started reports data-plane requests the server began processing; equality
// with Finished after Drain proves zero dropped in-flight work.
func (d *Daemon) Started() int64 { return d.started.Load() }

// Finished reports completed data-plane requests; see Started.
func (d *Daemon) Finished() int64 { return d.finished.Load() }
