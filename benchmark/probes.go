package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pressio/internal/bitstream"
	"pressio/internal/cluster"
	"pressio/internal/core"
	"pressio/internal/daemon"
	"pressio/internal/fsx"
	"pressio/internal/h5lite"
	"pressio/internal/huffman"
	"pressio/internal/meta"
	"pressio/internal/rangecoder"
	"pressio/internal/resilience"
	"pressio/internal/sdrbench"
	"pressio/internal/service"
	"pressio/internal/stats"
	"pressio/internal/store"
	"pressio/internal/stream"
	"pressio/internal/sz"
	"pressio/internal/trace"
)

// prober runs the layer probes of a traced run: direct calls into one layer's
// public functions, each recorded as a span on the probe track, producing the
// per-layer numbers that have no place inside a workload op. The probes do
// not depend on the workload, so the same rows come out of every traced run.
type prober struct {
	tr      *tracer
	seed    int64
	scratch string
	out     map[string]float64
	// quick divides every iteration count by eight, for the smoke tests.
	quick bool
}

func (p *prober) reps(n int) int {
	if p.quick {
		return max(n/8, 1)
	}
	return n
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// timeN calls fn once untimed, then n times, and returns the mean time of a
// call. The n calls are one span.
func (p *prober) timeN(name string, n int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	n = p.reps(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	d := time.Since(start)
	p.tr.span("probe."+name, start, d)
	return d / time.Duration(n), nil
}

// medianOf calls fn n times and returns the median time of a call.
func (p *prober) medianOf(name string, n int, fn func() error) (time.Duration, error) {
	n = p.reps(n)
	ds := make([]float64, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(time.Since(start)))
	}
	p.tr.span("probe."+name, begin, time.Since(begin))
	return time.Duration(stats.Median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// run executes every probe; the first failure ends it.
func (p *prober) run() error {
	for _, probe := range []func() error{
		p.core, p.codecs, p.entropy, p.metaStream, p.composition,
		p.daemonHTTP, p.cluster, p.store, p.containers,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// field256K is the 256 KiB float32 field several probes share.
func (p *prober) field256K() *core.Data { return sdrbench.ScaleLetKF(16, 64, 64, p.seed) }

// field1M is the 1 MiB float32 field of serve_large and store_rw.
func (p *prober) field1M() *core.Data { return sdrbench.ScaleLetKF(objRows, 128, 128, p.seed) }

// core: the paper's Fig. 3 experiment. Matched pairs of the generic interface
// and the codec's native call on the same input, alternating which goes
// first, and a Wilcoxon signed-rank test on the pairs.
func (p *prober) core() error {
	in := p.field256K()
	c, err := newBoundedCompressor("sz_threadsafe")
	if err != nil {
		return err
	}
	params := sz.DefaultParams()
	params.Mode, params.Bound = core.BoundAbs, absBound
	generic := func() error { _, err := core.Compress(c, in); return err }
	native := func() error { _, err := sz.CompressSlice(in.Float32s(), in.Dims(), params); return err }
	pairs := max(p.reps(30), 8)
	g, n := make([]float64, pairs), make([]float64, pairs)
	timed := func(fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		return float64(time.Since(start)), err
	}
	if err := generic(); err != nil {
		return err
	}
	if err := native(); err != nil {
		return err
	}
	begin := time.Now()
	for i := 0; i < pairs; i++ {
		order := []func() error{generic, native}
		if i%2 == 1 {
			order[0], order[1] = native, generic
		}
		for k, fn := range order {
			d, err := timed(fn)
			if err != nil {
				return fmt.Errorf("core dispatch pair: %w", err)
			}
			if (k == 0) == (i%2 == 0) {
				g[i] = d
			} else {
				n[i] = d
			}
		}
	}
	p.tr.span("probe.core.dispatch_pairs", begin, time.Since(begin))
	p.set("core.dispatch_overhead_pct", (stats.Median(g)/stats.Median(n)-1)*100)
	wr, err := stats.WilcoxonSignedRank(g, n)
	if err != nil {
		return fmt.Errorf("wilcoxon: %w", err)
	}
	p.set("core.dispatch_wilcoxon_p", wr.P)

	opts := core.NewOptions().SetValue(core.KeyAbs, absBound)
	d, err := p.timeN("core.set_options", 2000, func() error {
		if err := c.SetOptions(opts); err != nil {
			return err
		}
		_ = c.Options()
		return nil
	})
	if err != nil {
		return err
	}
	p.set("core.set_options_ns", float64(d))
	d, err = p.timeN("core.clone", 2000, func() error { _ = c.Clone(); return nil })
	if err != nil {
		return err
	}
	p.set("core.clone_ns", float64(d))
	return nil
}

// codecs: the per-codec split of two lib_codecs passes, with allocation
// deltas around every compress call; then one more pass with the program's
// own tracing switched on, against one with it off.
func (p *prober) codecs() error {
	lw := &libWorkload{}
	if p.quick {
		lw.scale = 1
	}
	if err := lw.setup(p.seed); err != nil {
		return err
	}
	type acc struct {
		ct, dt         time.Duration
		cb, db         int64
		allocs, allocB float64
		calls          int
	}
	accs := make([]acc, len(libCodecs))
	begin := time.Now()
	const passes = 2
	for i := 0; i < passes*lw.cycle(); i++ {
		ci, _ := lw.combo(i)
		var res opResult
		allocs, allocB, _ := allocDelta(1, func() error { res = lw.op(0, i, nil); return nil })
		if !res.ok {
			return fmt.Errorf("codec probe: %s call %d failed its check", libCodecs[ci].short, i)
		}
		a := &accs[ci]
		if res.kind == opWrite {
			a.ct += res.dur
			a.cb += int64(res.bytes)
			a.allocs += allocs
			a.allocB += allocB
			a.calls++
		} else {
			a.dt += res.dur
			a.db += int64(res.bytes)
		}
	}
	p.tr.span("probe.codecs.passes", begin, time.Since(begin))
	var all time.Duration
	for _, a := range accs {
		all += a.ct + a.dt
	}
	for ci, a := range accs {
		name := libCodecs[ci].short
		p.set(name+".compress_mbps", mbps(a.cb, a.ct))
		p.set(name+".decompress_mbps", mbps(a.db, a.dt))
		p.set(name+".compress_allocs_per_op", a.allocs/float64(a.calls))
		p.set(name+".compress_alloc_bytes_per_op", a.allocB/float64(a.calls))
		p.set(name+".time_share_pct", 100*float64(a.ct+a.dt)/float64(all))
	}

	pass := func() (time.Duration, error) {
		var d time.Duration
		for i := 0; i < lw.cycle(); i++ {
			res := lw.op(0, i, nil)
			if !res.ok {
				return 0, fmt.Errorf("trace probe: call %d failed its check", i)
			}
			d += res.dur
		}
		return d, nil
	}
	begin = time.Now()
	off, err := pass()
	if err != nil {
		return err
	}
	trace.Enable()
	on, err := pass()
	trace.Disable()
	trace.Reset()
	if err != nil {
		return err
	}
	p.tr.span("probe.trace.enabled_pair", begin, time.Since(begin))
	p.set("trace.enabled_overhead_pct", (float64(on)/float64(off)-1)*100)
	return nil
}

// entropy: huffman, rangecoder and bitstream on the inputs internal/perfledger
// uses (2^18 peaked symbols, 2^20 skewed bits, 13-bit words), so these rows
// stay comparable with the stage rows of BENCH_2026-08-08.json.
func (p *prober) entropy() error {
	const nsym = 1 << 18
	rng := rand.New(rand.NewSource(p.seed))
	syms := make([]uint32, nsym)
	for i := range syms {
		v := int(rng.NormFloat64()*12) + 128
		syms[i] = uint32(min(max(v, 0), 255))
	}
	var enc []byte
	d, err := p.timeN("huffman.encode", 8, func() (err error) { enc, err = huffman.Encode(syms, 256); return })
	if err != nil {
		return err
	}
	p.set("huffman.encode_mbps", mbps(4*nsym, d))
	d, err = p.timeN("huffman.decode", 8, func() error { _, _, err := huffman.Decode(enc); return err })
	if err != nil {
		return err
	}
	p.set("huffman.decode_mbps", mbps(4*nsym, d))

	const nbits = 1 << 20
	bits := make([]int, nbits)
	for i := range bits {
		if rng.Float64() < 0.8 {
			bits[i] = 1
		}
	}
	var coded []byte
	d, _ = p.timeN("rangecoder.encode", 4, func() error {
		e := rangecoder.NewEncoder()
		prob := rangecoder.NewProb()
		for _, b := range bits {
			e.EncodeBit(&prob, b)
		}
		coded = e.Finish()
		return nil
	})
	p.set("rangecoder.encode_mbps", mbps(nbits/8, d))
	d, _ = p.timeN("rangecoder.decode", 4, func() error {
		dec := rangecoder.NewDecoder(coded)
		prob := rangecoder.NewProb()
		for i := 0; i < nbits; i++ {
			dec.DecodeBit(&prob)
		}
		return nil
	})
	p.set("rangecoder.decode_mbps", mbps(nbits/8, d))

	const nwords, width = 1 << 18, 13
	var packed []byte
	d, _ = p.timeN("bitstream.write", 8, func() error {
		w := bitstream.NewWriter(nwords * width / 8)
		for i := 0; i < nwords; i++ {
			w.WriteBits(uint64(i)&(1<<width-1), width)
		}
		packed = w.Bytes()
		return nil
	})
	p.set("bitstream.write_mbps", mbps(nwords*width/8, d))
	d, _ = p.timeN("bitstream.read", 8, func() error {
		r := bitstream.NewReader(packed)
		for i := 0; i < nwords; i++ {
			r.ReadBits(width)
		}
		return nil
	})
	p.set("bitstream.read_mbps", mbps(nwords*width/8, d))

	flate, err := core.NewCompressor("flate")
	if err != nil {
		return err
	}
	raw := core.NewBytes(p.field256K().Bytes())
	d, err = p.timeN("lossless.flate", 4, func() error { _, err := core.Compress(flate, raw); return err })
	if err != nil {
		return err
	}
	p.set("lossless.flate_compress_mbps", mbps(int64(raw.ByteLen()), d))
	return nil
}

// metaStream: the parallel runtime, the chunking wrapper and the framed
// stream, none of which a server uses today.
func (p *prober) metaStream() error {
	proto, err := newBoundedCompressor("sz_threadsafe")
	if err != nil {
		return err
	}
	bufs := make([]*core.Data, p.reps(8))
	for i := range bufs {
		bufs[i] = sdrbench.ScaleLetKF(16, 64, 64, p.seed+int64(i))
	}
	var many [2]time.Duration
	for i, threads := range []int{1, 2} {
		many[i], err = p.timeN(fmt.Sprintf("meta.compress_many_%d", threads), 2, func() error {
			_, err := meta.CompressMany(proto, bufs, threads)
			return err
		})
		if err != nil {
			return err
		}
	}
	p.set("meta.many_speedup", float64(many[0])/float64(many[1]))

	big := p.field1M()
	chunked, err := core.NewCompressor("chunking")
	if err != nil {
		return err
	}
	// One thread, so the difference is the wrapper's own cost (split, frame,
	// reassemble) and not the parallelism it can also buy.
	if err := chunked.SetOptions(core.NewOptions().
		SetValue("chunking:compressor", "sz_threadsafe").
		SetValue("chunking:nthreads", int32(1)).
		SetValue(core.KeyAbs, absBound)); err != nil {
		return fmt.Errorf("configuring chunking: %w", err)
	}
	direct, err := p.timeN("meta.direct_1m", 4, func() error { _, err := core.Compress(proto, big); return err })
	if err != nil {
		return err
	}
	wrapped, err := p.timeN("meta.chunking_1m", 4, func() error { _, err := core.Compress(chunked, big); return err })
	if err != nil {
		return err
	}
	p.set("meta.chunking_overhead_pct", (float64(wrapped)/float64(direct)-1)*100)

	// 4 MiB of field bytes through the framed stream in 256 KiB frames. The
	// stream hands its compressor bytes, so the codec is flate.
	var src []byte
	for i := 0; i < p.reps(4); i++ {
		src = append(src, sdrbench.ScaleLetKF(objRows, 128, 128, p.seed+int64(i)).Bytes()...)
	}
	var framed bytes.Buffer
	write := func(opts ...stream.WriterOption) func() error {
		return func() error {
			framed.Reset()
			w, err := stream.NewWriter(&framed, "flate", nil, append(opts, stream.WithFrameSize(256<<10))...)
			if err != nil {
				return err
			}
			if _, err := w.Write(src); err != nil {
				return err
			}
			return w.Close()
		}
	}
	async, err := p.timeN("stream.write_async", 2, write(stream.WithAsync(2)))
	if err != nil {
		return err
	}
	serial, err := p.timeN("stream.write", 2, write())
	if err != nil {
		return err
	}
	p.set("stream.write_mbps", mbps(int64(len(src)), serial))
	p.set("stream.async_speedup", float64(serial)/float64(async))
	encoded := bytes.Clone(framed.Bytes())
	read, err := p.timeN("stream.read", 2, func() error {
		r, err := stream.NewReader(bytes.NewReader(encoded), "flate", nil)
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, r)
		if err == nil && n != int64(len(src)) {
			err = fmt.Errorf("stream read back %d of %d bytes", n, len(src))
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("stream.read_mbps", mbps(int64(len(src)), read))
	return nil
}

// composition: what each protection wrapper adds to a noop call at 4 KiB (the
// serve_small request), the integrity frame at 1 MiB, and an uncontended
// admission.
func (p *prober) composition() error {
	in := core.FromFloat32s(make([]float32, 1024))
	call := func(cfg daemon.Config) (time.Duration, error) {
		cfg.Compressor = "noop"
		c, err := composedCompressor(cfg)
		if err != nil {
			return 0, err
		}
		out := core.NewEmpty(core.DTypeByte, 0)
		return p.timeN("compose."+c.Prefix(), 5000, func() error { return c.Compress(in, out) })
	}
	plain, err := call(daemon.Config{})
	if err != nil {
		return err
	}
	for _, row := range []struct {
		metric string
		cfg    daemon.Config
	}{
		{"resilience.guard_overhead_us", daemon.Config{Guard: true}},
		{"resilience.fallback_overhead_us", daemon.Config{FallbackCSV: "flate"}},
		{"service.breaker_overhead_us", daemon.Config{Breaker: true}},
		{"service.compose_overhead_us", daemon.Config{Guard: true, Breaker: true, FallbackCSV: "flate"}},
	} {
		d, err := call(row.cfg)
		if err != nil {
			return err
		}
		p.set(row.metric, us(d-plain))
	}

	big := p.field1M()
	var frame []byte
	d, err := p.timeN("resilience.frame_encode", 16, func() (err error) {
		frame, err = resilience.EncodeFrame("noop", big.DType(), big.Dims(), big.Bytes())
		return
	})
	if err != nil {
		return err
	}
	p.set("resilience.frame_encode_mbps", mbps(int64(big.ByteLen()), d))
	d, err = p.timeN("resilience.frame_decode", 16, func() error { _, err := resilience.DecodeFrame(frame); return err })
	if err != nil {
		return err
	}
	p.set("resilience.frame_decode_mbps", mbps(int64(big.ByteLen()), d))

	adm, err := service.NewBulkhead("probe", 1<<30, 64, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	d, err = p.timeN("service.admission", 20000, func() error {
		release, err := adm.Acquire(ctx, 4096)
		if err == nil {
			release()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("service.admission_acquire_ns", float64(d))
	return nil
}

// daemonHTTP: the serve_small stack once over loopback HTTP and once as the
// same composed compressor called in process; the difference is what the
// daemon and HTTP add around the call.
func (p *prober) daemonHTTP() error {
	resetProcessState()
	w := newServeSmall()
	w.warmOps = 200
	if err := w.setup(p.seed); err != nil {
		return err
	}
	pl := w.pool[0]
	edge, err := p.medianOf("daemon.http_edge", 1500, func() error {
		if res := w.request(0, pl, true, nil); !res.ok {
			return fmt.Errorf("probe request failed")
		}
		return nil
	})
	_, _, tdErr := w.teardown()
	if err != nil {
		return err
	}
	if tdErr != nil {
		return tdErr
	}
	in, err := core.NewMove(core.DTypeFloat32, pl.raw, pl.dims...)
	if err != nil {
		return err
	}
	out := core.NewEmpty(core.DTypeByte, 0)
	inproc, err := p.medianOf("daemon.http_inproc", 1500, func() error { return w.local.Compress(in, out) })
	if err != nil {
		return err
	}
	p.set("daemon.http_overhead_us", us(edge-inproc))
	return nil
}

// cluster: the same payloads through the router and straight to one shard;
// the per-peer client and the ring on their own; and the wasted-work counters
// of the routed requests.
func (p *prober) cluster() error {
	resetProcessState()
	w := newServeRouted()
	w.warmOps = 100
	if err := w.setup(p.seed); err != nil {
		return err
	}
	defer func() { _, _, _ = w.teardown() }() // a failed drain changes no probe number
	const n = 300
	i := 0
	routed, err := p.medianOf("cluster.routed", n, func() error {
		i++
		if res := w.request(0, w.pool[i%len(w.pool)], true, nil); !res.ok {
			return fmt.Errorf("routed probe request failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	counters := trace.Counters()
	requests := float64(counters[trace.CtrClusterRequests])
	if requests == 0 {
		return fmt.Errorf("cluster probe: the router counted no requests")
	}
	p.set("cluster.hedge_share", float64(counters[trace.CtrClusterHedges])/requests)
	p.set("cluster.retries", float64(counters[trace.CtrClusterRetries]))
	p.set("cluster.failovers", float64(counters[trace.CtrClusterFailovers]))
	p.set("cluster.local_fallback", float64(counters[trace.CtrClusterLocalFallback]))
	a := float64(counters[trace.ClusterPeerKey(w.shards[0].Addr(), "requests")])
	b := float64(counters[trace.ClusterPeerKey(w.shards[1].Addr(), "requests")])
	p.set("cluster.shard_imbalance_pct", 100*math.Abs(a-b)/(a+b))

	shard := "http://" + w.shards[0].Addr()
	buf := w.bufs[0]
	i = 0
	direct, err := p.medianOf("cluster.direct", n, func() error {
		i++
		pl := w.pool[i%len(w.pool)]
		c, err := w.lc.do(nil, http.MethodPost, shard+"/compress"+pl.query, pl.raw, "", buf)
		if err != nil || c.status != http.StatusOK || !bytes.Equal(buf.Bytes(), pl.compressed) {
			return fmt.Errorf("direct probe request: status %d: %v", c.status, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("cluster.hop_overhead_us", us(routed-direct))

	pc, err := cluster.NewPeerClient(w.shards[0].Addr(), cluster.PeerConfig{})
	if err != nil {
		return err
	}
	defer pc.CloseIdle()
	ctx := context.Background()
	pl := w.pool[0]
	d, err := p.medianOf("cluster.peer_do", n, func() error {
		_, err := pc.Do(ctx, cluster.OpCompress, core.DTypeFloat32, pl.dims, pl.raw)
		return err
	})
	if err != nil {
		return err
	}
	p.set("cluster.peer_do_us", us(d))
	ring := cluster.NewRing(cluster.DefaultVirtualNodes, w.shards[0].Addr(), w.shards[1].Addr())
	d, _ = p.timeN("cluster.ring_replicas", 2000, func() error { _ = ring.Replicas(pl.raw, 2); return nil })
	p.set("cluster.ring_replicas_ns", float64(d))
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// store: direct calls into the object store on a 1 MiB object in four chunks,
// unfiltered and with the zfp filter store_rw uses.
func (p *prober) store() (err error) {
	trace.ResetTelemetry()
	dir, err := os.MkdirTemp(p.scratch, "probe-store-")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()
	s, err := store.Open(filepath.Join(dir, "ops"), store.Options{CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	in := p.field1M()
	user := int64(in.ByteLen())
	plain := store.PutOptions{ChunkRows: objChunkRows}
	filtered := store.PutOptions{ChunkRows: objChunkRows, Filter: "zfp", FilterOptions: map[string]float64{core.KeyAbs: absBound}}
	seq := 0
	put := func(prefix string, po store.PutOptions) func() error {
		return func() error {
			seq++
			_, err := s.Put(fmt.Sprintf("%s/%d", prefix, seq), in, po)
			return err
		}
	}
	const n = 8
	d, err := p.timeN("store.put", n, put("plain", plain))
	if err != nil {
		return err
	}
	p.set("store.put_ms", ms(d))

	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	allocs, allocB, err := allocDelta(n, put("zfp", filtered))
	if err != nil {
		return fmt.Errorf("store.put_filtered: %w", err)
	}
	d = time.Since(start) / n
	p.tr.span("probe.store.put_filtered", start, time.Since(start))
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.set("store.put_filtered_ms", ms(d))
	p.set("store.put_allocs_per_op", allocs)
	p.set("store.put_alloc_bytes_per_op", allocB)
	p.set("store.write_amp", float64(after-before)/float64(n*user))

	obj := fmt.Sprintf("zfp/%d", seq)
	if d, err = p.timeN("store.get", n, func() error { _, _, err := s.Get(obj); return err }); err != nil {
		return err
	}
	p.set("store.get_ms", ms(d))
	if d, err = p.timeN("store.get_rows", 2*n, func() error { _, _, err := s.GetRows(obj, objChunkRows, objChunkRows); return err }); err != nil {
		return err
	}
	p.set("store.get_rows_ms", ms(d))
	if d, err = p.timeN("store.get_range", 2*n, func() error { _, _, err := s.GetRange(obj, objRowBytes, objRange); return err }); err != nil {
		return err
	}
	p.set("store.get_range_ms", ms(d))

	// Two writers at once, as in store_rw: group commit shows as fewer
	// journal fsyncs than PUTs.
	c0 := trace.Counters()
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n && errs[c] == nil; i++ {
				_, errs[c] = s.Put(fmt.Sprintf("pair/%d/%d", c, i), in, filtered)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("store concurrent put: %w", err)
		}
	}
	c1 := trace.Counters()
	p.set("store.fsyncs_per_put", float64(c1[trace.CtrStoreJournalFsyncs]-c0[trace.CtrStoreJournalFsyncs])/
		float64(c1[trace.CtrStorePuts]-c0[trace.CtrStorePuts]))

	del := 0
	if d, err = p.timeN("store.delete", n-1, func() error { del++; return s.Delete(fmt.Sprintf("plain/%d", del)) }); err != nil {
		return err
	}
	p.set("store.delete_ms", ms(d))
	start = time.Now()
	if err := s.Checkpoint(); err != nil {
		return fmt.Errorf("store.checkpoint: %w", err)
	}
	p.tr.span("probe.store.checkpoint", start, time.Since(start))
	p.set("store.checkpoint_ms", ms(time.Since(start)))
	var live int64
	for _, info := range s.List() {
		live += int64(info.StoredBytes)
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.set("store.space_amp", float64(onDisk)/float64(live))

	// Recovery: Open on a journal that was never checkpointed replays every
	// record and re-verifies every chunk; this gates /readyz.
	replayDir := filepath.Join(dir, "replay")
	r, err := store.Open(replayDir, store.Options{CheckpointBytes: -1})
	if err != nil {
		return err
	}
	objects := p.reps(n)
	for i := 0; i < objects && err == nil; i++ {
		_, err = r.Put(fmt.Sprintf("replay/%d", i), in, plain)
	}
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store replay set-up: %w", err)
	}
	var reopened *store.Store
	d, err = p.timeN("store.replay", 2, func() error {
		if reopened != nil {
			if err := reopened.Close(); err != nil {
				return err
			}
		}
		reopened, err = store.Open(replayDir, store.Options{CheckpointBytes: -1})
		return err
	})
	if err != nil {
		return err
	}
	p.set("store.replay_mbps", mbps(int64(objects)*user, d))
	d, err = p.timeN("store.scrub", 2, func() error { _, err := reopened.ScrubOnce(); return err })
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.set("store.scrub_mbps", mbps(int64(objects)*user, d))
	return nil
}

// containers: the segment container and the atomic-write primitive under the
// store, on the same 1 MiB object.
func (p *prober) containers() (err error) {
	dir, err := os.MkdirTemp(p.scratch, "probe-files-")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()
	in := p.field1M()
	path := filepath.Join(dir, "segment.h5l")
	const n = 6
	d, err := p.timeN("h5lite.write", n, func() error {
		f := h5lite.Create(path)
		if err := f.WriteDataset("d", in, h5lite.DatasetOptions{ChunkRows: objChunkRows}); err != nil {
			return err
		}
		return f.Save()
	})
	if err != nil {
		return err
	}
	p.set("h5lite.write_ms", ms(d))
	if d, err = p.timeN("h5lite.read", n, func() error {
		f, err := h5lite.Open(path)
		if err != nil {
			return err
		}
		_, err = f.ReadDataset("d")
		return err
	}); err != nil {
		return err
	}
	p.set("h5lite.read_ms", ms(d))
	if d, err = p.timeN("h5lite.read_rows", n, func() error {
		f, err := h5lite.Open(path)
		if err != nil {
			return err
		}
		_, err = f.ReadRows("d", objChunkRows, objChunkRows)
		return err
	}); err != nil {
		return err
	}
	p.set("h5lite.read_rows_ms", ms(d))
	if d, err = p.timeN("fsx.atomic_write", n, func() error {
		return fsx.AtomicWriteFile(filepath.Join(dir, "atomic.bin"), in.Bytes(), 0o644)
	}); err != nil {
		return err
	}
	p.set("fsx.atomic_write_ms", ms(d))
	return nil
}
