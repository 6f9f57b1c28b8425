package meta

import (
	"testing"

	"pressio/internal/core"
)

// tallyMetric counts hook invocations; its Clone starts from zero, so any
// count that lands on the prototype's instance proves state was shared
// rather than cloned per worker.
type tallyMetric struct {
	begins, ends int
}

func (m *tallyMetric) Prefix() string                            { return "tally" }
func (m *tallyMetric) Opts() core.Opts                           { return core.NoOptions(m) }
func (m *tallyMetric) BeginCompress(in *core.Data)               { m.begins++ }
func (m *tallyMetric) EndCompress(in, out *core.Data, e error)   { m.ends++ }
func (m *tallyMetric) BeginDecompress(in *core.Data)             { m.begins++ }
func (m *tallyMetric) EndDecompress(in, out *core.Data, e error) { m.ends++ }
func (m *tallyMetric) Clone() core.Metric                        { return &tallyMetric{} }

func (m *tallyMetric) Results() *core.Options {
	return core.NewOptions().
		SetValue("tally:begins", int32(m.begins)).
		SetValue("tally:ends", int32(m.ends))
}

func manyBufs(n int) []*core.Data {
	bufs := make([]*core.Data, n)
	for i := range bufs {
		bufs[i] = smooth([]uint64{64, 32}, int64(100+i))
	}
	return bufs
}

func TestCompressManyClonesMetricPerWorker(t *testing.T) {
	proto, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	tally := &tallyMetric{}
	proto.SetMetrics(tally)
	bufs := manyBufs(8)
	_, merged, err := CompressManyWithMetrics(proto, bufs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The prototype's own metric must be untouched: every worker ran a
	// clone with fresh state.
	if tally.begins != 0 || tally.ends != 0 {
		t.Fatalf("prototype metric mutated: begins=%d ends=%d", tally.begins, tally.ends)
	}
	// Static partitioning over 2 workers gives each exactly 4 buffers, and
	// the merge (worker order) must reflect a worker's tally, not zero.
	begins, err := merged.GetInt32("tally:begins")
	if err != nil || begins != 4 {
		t.Fatalf("merged tally:begins = %d (%v), want 4", begins, err)
	}
}

func TestCompressManyWithMetricsDeterministicMerge(t *testing.T) {
	bufs := manyBufs(7)
	run := func() string {
		proto, err := core.NewCompressor("noop")
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMetrics("size", "time")
		if err != nil {
			t.Fatal(err)
		}
		proto.SetMetrics(m)
		_, merged, err := CompressManyWithMetrics(proto, bufs, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Strip wall-clock values: determinism is about which worker's
		// state wins each key, not about timing itself.
		merged.Delete("time:compress")
		merged.Delete("time:decompress")
		return merged.String()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("merge not deterministic:\nrun0: %s\nrun%d: %s", first, i+1, got)
		}
	}
}

func TestDecompressManyWithMetricsMerges(t *testing.T) {
	proto, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	bufs := manyBufs(6)
	comps, err := CompressMany(proto, bufs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tally := &tallyMetric{}
	proto.SetMetrics(tally)
	hints := make([]*core.Data, len(bufs))
	for i, b := range bufs {
		hints[i] = core.NewEmpty(b.DType(), b.Dims()...)
	}
	outs, merged, err := DecompressManyWithMetrics(proto, comps, hints, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(bufs) {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i := range outs {
		if outs[i].ByteLen() != bufs[i].ByteLen() {
			t.Fatalf("buffer %d: %d bytes, want %d", i, outs[i].ByteLen(), bufs[i].ByteLen())
		}
	}
	if tally.begins != 0 {
		t.Fatal("prototype metric mutated during DecompressMany")
	}
	// 6 buffers over 3 workers: each worker decompresses exactly 2.
	begins, err := merged.GetInt32("tally:begins")
	if err != nil || begins != 2 {
		t.Fatalf("merged tally:begins = %d (%v), want 2", begins, err)
	}
}

func TestCompressManySingleThreadSafety(t *testing.T) {
	// "sz" (global-config flavor) declares single: the batch must still
	// complete correctly through the serial path, with metrics merged from
	// the one worker clone.
	proto, err := core.NewCompressor("sz")
	if err != nil {
		t.Fatal(err)
	}
	tally := &tallyMetric{}
	proto.SetMetrics(tally)
	bufs := manyBufs(3)
	comps, merged, err := CompressManyWithMetrics(proto, bufs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("got %d streams", len(comps))
	}
	begins, err := merged.GetInt32("tally:begins")
	if err != nil || begins != 3 {
		t.Fatalf("merged tally:begins = %d (%v), want 3", begins, err)
	}
}
