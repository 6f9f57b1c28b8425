package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pressio/internal/core"
	"pressio/internal/obslog"
	"pressio/internal/trace"
)

// Operation names on the pressiod data plane (and so in the router API).
const (
	OpCompress   = "compress"
	OpDecompress = "decompress"
)

// LocalFunc is the router's degradation path: a local compressor invoked
// when every replica is unreachable. nil disables local degradation (the
// router then sheds with a typed 503-shaped error instead).
type LocalFunc func(ctx context.Context, op string, dtype core.DType, dims []uint64, body []byte) ([]byte, error)

// RouterConfig assembles a Router; Peers is the only required field.
type RouterConfig struct {
	// Peers are the shard addresses ("host:port").
	Peers []string
	// Replicas is the replica-set size R per key (default 2, clamped to the
	// fleet size). The primary serves; later replicas are hedge and
	// failover targets.
	Replicas int
	// VNodes is the virtual node count per peer (default DefaultVirtualNodes).
	VNodes int
	// Peer tunes the per-peer resilience stack.
	Peer PeerConfig
	// HedgeFloor is the minimum hedge delay (default 25ms): never hedge
	// faster than this even when the p99 is tiny, or a warmed-up router
	// would double its traffic for nothing.
	HedgeFloor time.Duration
	// HedgeCeiling caps the p99-derived hedge delay (default 2s).
	HedgeCeiling time.Duration
	// Fanout bounds concurrent chunk requests in CompressMany/DecompressMany
	// (default 8).
	Fanout int
	// Local is the degradation path when the whole fleet is unreachable.
	Local LocalFunc
}

// Router fans compression work out across a consistent-hash ring of pressiod
// peers. Placement is content-addressed (the key is a hash of the payload),
// each key has a replica set of R peers, slow primaries are hedged to the
// next replica after a p99-derived delay, failed or breaker-open peers fail
// over through the replica set, and a fully unreachable fleet degrades to
// local compression when configured.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	clients map[string]*PeerClient

	started sync.Once
}

// NewRouter builds the ring and one resilient client per peer.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: router needs at least one peer")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Peers) {
		cfg.Replicas = len(cfg.Peers)
	}
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = 25 * time.Millisecond
	}
	if cfg.HedgeCeiling <= 0 {
		cfg.HedgeCeiling = 2 * time.Second
	}
	if cfg.Fanout < 1 {
		cfg.Fanout = 8
	}
	r := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.VNodes),
		clients: make(map[string]*PeerClient, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		if _, dup := r.clients[p]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		pc, err := NewPeerClient(p, cfg.Peer)
		if err != nil {
			return nil, err
		}
		r.clients[p] = pc
		r.ring.Add(p)
		// Until the health checker's first sweep says otherwise, assume
		// peers are up: the request path discovers dead ones by failing
		// over, which is exactly its job.
		r.ring.SetUp(p, true)
	}
	return r, nil
}

// Ring exposes the placement ring (the health checker flips peer state on
// it; tests inspect it).
func (r *Router) Ring() *Ring { return r.ring }

// candidates resolves the replica set for key and orders it for attempting:
// ring order, but peers marked down are moved to the back — placement never
// churns, yet a known-dead primary doesn't eat the first attempt's latency.
func (r *Router) candidates(key []byte) []*PeerClient {
	replicas := r.ring.Replicas(key, r.cfg.Replicas)
	out := make([]*PeerClient, 0, len(replicas))
	for _, p := range replicas {
		if r.ring.Up(p) {
			out = append(out, r.clients[p])
		}
	}
	for _, p := range replicas {
		if !r.ring.Up(p) {
			out = append(out, r.clients[p])
		}
	}
	return out
}

// Compress routes one buffer: placement by content hash, hedged primary,
// failover through the replica set, local degradation last.
func (r *Router) Compress(ctx context.Context, dtype core.DType, dims []uint64, payload []byte) ([]byte, error) {
	return r.route(ctx, OpCompress, dtype, dims, payload)
}

// Decompress routes one compressed buffer; dtype/dims describe the expected
// output (pressiod streams are not self-describing).
func (r *Router) Decompress(ctx context.Context, dtype core.DType, dims []uint64, payload []byte) ([]byte, error) {
	return r.route(ctx, OpDecompress, dtype, dims, payload)
}

func (r *Router) route(ctx context.Context, op string, dtype core.DType, dims []uint64, payload []byte) ([]byte, error) {
	trace.CounterAdd(trace.CtrClusterRequests, 1)
	cands := r.candidates(payload)
	var lastErr error
	for i := 0; i < len(cands); i++ {
		primary := cands[i]
		if !primary.Available() {
			trace.CounterAdd(trace.CtrClusterFailovers, 1)
			lastErr = fmt.Errorf("cluster: peer %s skipped: breaker open (%w)", primary.Addr(), core.ErrShed)
			continue
		}
		out, err := r.hedged(ctx, primary, r.nextHedge(cands, i+1), op, dtype, dims, payload)
		if err == nil {
			return out, nil
		}
		if !failoverable(err) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		trace.CounterAdd(trace.CtrClusterFailovers, 1)
		obslog.Default().Warnw("cluster.failover",
			obslog.Str("op", op),
			obslog.Str("peer", primary.Addr()),
			obslog.Err(err))
	}
	if r.cfg.Local != nil {
		trace.CounterAdd(trace.CtrClusterLocalFallback, 1)
		obslog.Default().Warnw("cluster.local_fallback",
			obslog.Str("op", op),
			obslog.Str("ring", r.ring.String()),
			obslog.Err(lastErr))
		return r.cfg.Local(ctx, op, dtype, dims, payload)
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: replica set empty")
	}
	// The whole fleet is unreachable and no local path exists: that is an
	// overload/availability shed, and it must wear the same typed-503 shape
	// a single node's sheds do.
	return nil, fmt.Errorf("cluster: no replica reachable for %s: %w: %w", op, core.ErrShed, lastErr)
}

// nextHedge picks the hedge target: the first later candidate that is up and
// whose breaker would admit a call, or nil.
func (r *Router) nextHedge(cands []*PeerClient, from int) *PeerClient {
	for _, pc := range cands[from:] {
		if pc.Available() && r.ring.Up(pc.Addr()) {
			return pc
		}
	}
	return nil
}

// attemptResult is one peer call's outcome inside a hedged pair.
type attemptResult struct {
	out   []byte
	err   error
	peer  *PeerClient
	hedge bool
}

// hedged runs the primary call, launching one hedge to the next replica if
// the primary exceeds its p99-derived hedge delay. First success wins and
// the loser is cancelled; the call returns only after every launched
// goroutine has finished, so callers never leak request goroutines.
func (r *Router) hedged(ctx context.Context, primary, hedge *PeerClient, op string, dtype core.DType, dims []uint64, payload []byte) ([]byte, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, 2) // buffered: a cancelled loser must never block on send
	var wg sync.WaitGroup
	defer wg.Wait()
	launch := func(pc *PeerClient, isHedge bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := pc.Do(cctx, op, dtype, dims, payload)
			results <- attemptResult{out: out, err: err, peer: pc, hedge: isHedge}
		}()
	}
	launch(primary, false)
	inFlight := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedge != nil {
		hedgeTimer = time.NewTimer(primary.HedgeDelay(r.cfg.HedgeFloor, r.cfg.HedgeCeiling))
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var firstErr error
	for {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil {
				if res.hedge {
					trace.CounterAdd(trace.CtrClusterHedgeWins, 1)
					trace.CounterAdd(trace.ClusterPeerKey(res.peer.Addr(), "hedge_wins"), 1)
				}
				cancel() // the loser, if any, aborts promptly; deferred wg.Wait joins it
				return res.out, nil
			}
			if !failoverable(res.err) {
				cancel()
				return nil, res.err
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if inFlight == 0 {
				// Primary failed before the hedge fired (or both failed):
				// report and let the failover loop take the next replica.
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if hedge.Available() {
				trace.CounterAdd(trace.CtrClusterHedges, 1)
				obslog.Default().Debugw("cluster.hedge",
					obslog.Str("op", op),
					obslog.Str("primary", primary.Addr()),
					obslog.Str("hedge", hedge.Addr()))
				launch(hedge, true)
				inFlight++
			}
		case <-ctx.Done():
			cancel()
			return nil, core.Transient(fmt.Errorf("cluster: %s: %w", op, ctx.Err()))
		}
	}
}

// Chunk is one unit of CompressMany/DecompressMany fan-out: an independent
// buffer with its own shape.
type Chunk struct {
	DType   core.DType
	Dims    []uint64
	Payload []byte
}

// CompressMany routes every chunk across the ring concurrently (bounded by
// Fanout). Results are index-aligned with chunks: result i is chunk i's
// compressed payload or nil when errs[i] != nil. The returned error joins
// the per-chunk failures; callers that must not lose items check it against
// nil and retry only the nil slots.
func (r *Router) CompressMany(ctx context.Context, chunks []Chunk) ([][]byte, error) {
	return r.many(ctx, OpCompress, chunks)
}

// DecompressMany is the decompression counterpart of CompressMany.
func (r *Router) DecompressMany(ctx context.Context, chunks []Chunk) ([][]byte, error) {
	return r.many(ctx, OpDecompress, chunks)
}

func (r *Router) many(ctx context.Context, op string, chunks []Chunk) ([][]byte, error) {
	results := make([][]byte, len(chunks))
	errs := make([]error, len(chunks))
	// The failures are joined, not reduced to the first, so ForEach has
	// nothing to return.
	_ = core.ForEach(len(chunks), r.cfg.Fanout, func(_, i int) error {
		results[i], errs[i] = r.route(ctx, op, chunks[i].DType, chunks[i].Dims, chunks[i].Payload)
		return nil
	})
	return results, errors.Join(errs...)
}

// Start logs the fleet shape once; the router holds no goroutine of its own.
func (r *Router) Start(context.Context) error {
	r.started.Do(func() {
		//lint:ignore blockinglock one-time boot log under the sync.Once mutex; never contended on a request path
		obslog.Default().Infow("cluster.router.start",
			obslog.Int("peers", int64(len(r.clients))),
			obslog.Int("replicas", int64(r.cfg.Replicas)))
	})
	return nil
}

// Stop releases pooled peer connections.
func (r *Router) Stop(context.Context) error {
	for _, pc := range r.clients {
		pc.CloseIdle()
	}
	return nil
}

// Ready reports whether the router can serve: once any peer is up, or always
// when a local degradation path exists.
func (r *Router) Ready() bool {
	return r.cfg.Local != nil || r.ring.UpCount() > 0
}
