// Command pressiod is the compression daemon: the pressio plugin library
// behind an HTTP data plane with overload protection, graceful shutdown, and
// a production observability plane.
//
//	pressiod -addr :8123 -compressor sz_threadsafe -breaker -guard \
//	         -o pressio:abs=1e-3 -mem-budget 268435456 -concurrency 8 \
//	         -ops-addr 127.0.0.1:8124 -slow-request 500ms
//
//	curl -s --data-binary @x.bin \
//	     'http://localhost:8123/compress?dims=100,500&dtype=float32' > x.sz
//
// Requests flow through per-operation bulkheads (admission control on
// declared bytes, a bounded FIFO queue, deadline-aware shedding) into a pool
// of compressor clones; the -breaker/-guard/-fallback flags compose the same
// resilience stack as the pressio CLI, breaker outermost. Overload responses
// are typed 503s with Retry-After. SIGTERM starts a graceful drain: /readyz
// flips to 503 immediately, a short lame-duck window lets load balancers
// notice, in-flight requests finish under -drain-timeout, and the process
// exits 0 on a clean drain.
//
// Router mode (see docs/CLUSTER.md) turns the daemon into a shard router:
//
//	pressiod -router -peers 10.0.0.1:8123,10.0.0.2:8123,10.0.0.3:8123 \
//	         -replicas 2 -hedge-after 25ms -health-interval 1s
//
// Requests are consistent-hash-routed across the fleet with per-peer circuit
// breakers and admission, hedged to the next replica when the primary
// exceeds its p99, failed over when peers die, and served by the local
// compressor when the whole fleet is unreachable (disable with
// -no-local-fallback). The HTTP surface and error shapes are identical to a
// single node, so clients cannot tell the topologies apart.
//
// Object-store mode (see docs/STORE.md) additionally serves a
// crash-consistent compressed object store:
//
//	pressiod -store-dir /var/lib/pressio/objects -scrub-interval 10m
//
//	curl -X PUT --data-binary @x.bin \
//	     'http://localhost:8123/objects/sim/run1?dims=100,500&dtype=float32&filter=sz&fopt=sz:abs=1e-3'
//
// PUT/DELETE acknowledgements mean the mutation is fsynced into a
// write-ahead journal and survives any crash; startup replays the journal
// before the listener opens (gating /readyz), a background scrubber
// quarantines bit rot at chunk granularity, and cmd/pressio-fsck checks or
// repairs a store directory offline.
//
// Observability (see docs/OBSERVABILITY.md): every data-plane response
// carries an X-Pressio-Request-Id (W3C traceparent-compatible, propagated
// from inbound traceparent headers); the request's span tree is retrievable
// from /tracez?id=<id>; /metricz serves Prometheus text exposition format;
// structured JSON-lines events go to
// stderr at -log-level and above; -ops-addr binds an operator-only listener
// with /debug/pprof. See docs/RESILIENCE.md for the serving behavior.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pressio/internal/daemon"
	"pressio/internal/obslog"
	"pressio/internal/trace"

	// Register the full plugin library.
	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/pio"
	_ "pressio/internal/resilience"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var opts stringList
	cfg := daemon.Config{}
	flag.StringVar(&cfg.Addr, "addr", ":8123", "listen address")
	flag.StringVar(&cfg.OpsAddr, "ops-addr", "", "operator-only listener with /debug/pprof, /metricz, /tracez (empty disables)")
	flag.StringVar(&cfg.Compressor, "compressor", "sz_threadsafe", "compressor plugin name")
	flag.BoolVar(&cfg.Guard, "guard", false, "wrap the compressor in the guard meta-compressor (tune with -o guard:...)")
	flag.StringVar(&cfg.FallbackCSV, "fallback", "", "comma separated backup compressors tried in order when the primary fails")
	flag.BoolVar(&cfg.Breaker, "breaker", false, "wrap the composition in the circuit-breaker meta-compressor (tune with -o breaker:...)")
	flag.IntVar(&cfg.Concurrency, "concurrency", 4, "compressor pool size (parallel codec calls)")
	flag.Int64Var(&cfg.MemBudget, "mem-budget", 1<<30, "admission budget per bulkhead in declared request bytes")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", 64, "bounded FIFO queue length per bulkhead; requests beyond it are shed")
	flag.DurationVar(&cfg.ReqTimeout, "request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 10*time.Second, "how long in-flight requests may run after SIGTERM")
	flag.DurationVar(&cfg.LameDuck, "lame-duck", 500*time.Millisecond, "window after SIGTERM during which the listener stays open but /readyz reports 503")
	flag.DurationVar(&cfg.SlowRequest, "slow-request", 500*time.Millisecond, "log a warn-level slow_request event for data-plane requests slower than this (0 disables)")
	flag.IntVar(&cfg.TraceBuffer, "trace-buffer", 256, "completed request span trees retained for /tracez")
	router := flag.Bool("router", false, "router mode: shard data-plane requests across -peers instead of compressing locally")
	flag.StringVar(&cfg.RouterPeers, "peers", "", "comma separated pressiod shard addresses for -router mode")
	flag.IntVar(&cfg.RouterReplicas, "replicas", 2, "replica-set size per key in -router mode")
	flag.IntVar(&cfg.RouterVNodes, "vnodes", 0, "virtual nodes per peer on the hash ring (0 = default)")
	flag.DurationVar(&cfg.RouterHedgeAfter, "hedge-after", 25*time.Millisecond, "hedge-delay floor: hedge to the next replica after max(this, peer p99)")
	flag.DurationVar(&cfg.RouterHealthInterval, "health-interval", time.Second, "peer /readyz poll period in -router mode")
	flag.BoolVar(&cfg.RouterNoLocal, "no-local-fallback", false, "shed instead of compressing locally when the whole fleet is unreachable")
	flag.DurationVar(&cfg.PeerTimeout, "peer-timeout", 10*time.Second, "per-attempt deadline on router→peer calls")
	flag.StringVar(&cfg.StoreDir, "store-dir", "", "serve the crash-consistent object store rooted here behind /objects (empty disables)")
	flag.DurationVar(&cfg.ScrubInterval, "scrub-interval", 10*time.Minute, "background scrub period for -store-dir (0 disables the scrubber)")
	flag.Int64Var(&cfg.StoreCheckpointBytes, "checkpoint-bytes", 0, "journal size triggering an automatic store checkpoint (0 = default 64 MiB, negative disables)")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error")
	flag.Var(&opts, "o", "compressor option key=value (repeatable)")
	flag.Parse()
	cfg.Options = opts
	if *router && cfg.RouterPeers == "" {
		fmt.Fprintln(os.Stderr, "pressiod: -router requires -peers")
		os.Exit(2)
	}
	if !*router {
		cfg.RouterPeers = "" // -peers without -router is inert, not a surprise mode switch
	}

	obslog.SetDefault(obslog.New(os.Stderr, obslog.ParseLevel(*logLevel)))

	d, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pressiod:", err)
		os.Exit(1)
	}

	if err := d.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "pressiod:", err)
		os.Exit(1)
	}
	mode := "compressor " + d.Name()
	if cfg.RouterPeers != "" {
		mode = "router over " + cfg.RouterPeers
	}
	fmt.Fprintf(os.Stderr, "pressiod: listening on %s (%s)\n", d.Addr(), mode)
	if ops := d.OpsAddr(); ops != "" {
		fmt.Fprintf(os.Stderr, "pressiod: ops listener on %s (pprof, metricz, tracez)\n", ops)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	s := <-sigCh
	fmt.Fprintf(os.Stderr, "pressiod: received %v, draining\n", s)
	if err := d.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "pressiod:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pressiod: drained cleanly (%d requests served, %d finished during drain)\n",
		trace.CounterValue(trace.CtrDaemonRequests), trace.CounterValue(trace.CtrDaemonDrained))
}
