package opt

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	"pressio/internal/resilience"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

func field(seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, 32*32*16)
	i := 0
	for z := 0; z < 16; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				vals[i] = float32(25*math.Sin(float64(x)/6)*math.Cos(float64(y)/8) +
					5*math.Sin(float64(z)/3) + 0.02*rng.NormFloat64())
				i++
			}
		}
	}
	return core.FromFloat32s(vals, 16, 32, 32)
}

// newOpt builds an opt compressor from key/value pairs.
func newOpt(t *testing.T, kv ...any) *core.Compressor {
	t.Helper()
	c, err := core.NewCompressor("opt")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	for i := 0; i < len(kv); i += 2 {
		o.SetValue(kv[i].(string), kv[i+1])
	}
	if err := c.SetOptions(o); err != nil {
		t.Fatal(err)
	}
	return c
}

// result is what one compression through opt chose and measured.
type result struct {
	bound, ratio, psnr float64
	evaluations        uint64
	chosen             string
	payload            []byte
}

// run compresses in through c, checks that the stream decodes through c to
// in's shape, and reads the report rows and the chosen candidate's payload.
func run(t *testing.T, c *core.Compressor, in *core.Data) (result, error) {
	t.Helper()
	m, err := core.NewMetrics("error_stat")
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(m)
	comp, err := core.Compress(c, in)
	if err != nil {
		return result{}, err
	}
	dec, err := core.Decompress(c, comp, in.DType(), in.Dims()...)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if dec.DType() != in.DType() || dec.Len() != in.Len() {
		t.Fatalf("decompressed %v, want %v", dec, in)
	}
	f, err := resilience.DecodeFrame(comp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	o := c.Options()
	r := result{payload: f.Payload, ratio: float64(in.ByteLen()) / float64(len(f.Payload))}
	r.bound, _ = o.GetFloat64(keyBound)
	r.evaluations, _ = o.GetUint64(keyEvaluations)
	r.chosen, _ = o.GetString(keyChosen)
	r.psnr, _ = c.MetricsResults().GetFloat64("error_stat:psnr")
	if r.chosen != f.Prefix {
		t.Fatalf("%s = %q, frame names %q", keyChosen, r.chosen, f.Prefix)
	}
	return r, nil
}

// compressAt compresses in with the named compressor at pressio:abs = bound.
func compressAt(t *testing.T, name string, in *core.Data, bound float64) []byte {
	t.Helper()
	c, err := core.NewCompressor(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, bound)); err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	return comp.Bytes()
}

func TestTuneRatioHitsTarget(t *testing.T) {
	in := field(1)
	for _, target := range []float64{5, 10, 20} {
		res, err := run(t, newOpt(t, keyTargetRatio, target), in)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if math.Abs(res.ratio-target) > 0.1*target {
			t.Fatalf("target %v: achieved %v", target, res.ratio)
		}
		if res.bound <= 0 || res.evaluations < 2 || res.chosen != "sz_threadsafe" {
			t.Fatalf("result %+v", res)
		}
		// The reported bound reproduces the emitted stream.
		if got := compressAt(t, "sz_threadsafe", in, res.bound); string(got) != string(res.payload) {
			t.Fatalf("target %v: sz_threadsafe at %s=%g does not reproduce the stream", target, keyBound, res.bound)
		}
	}
}

func TestTuneRatioWorksThroughZfp(t *testing.T) {
	// zfp's fixed-accuracy mode rounds the tolerance down to a power of
	// two, so its ratio curve is a step function — a coarser tolerance is
	// needed than for sz's smooth curve.
	in := field(2)
	res, err := run(t, newOpt(t, keyCompressors, "zfp", keyTargetRatio, 12.0, keyTolerance, 0.35), in)
	if err != nil {
		t.Fatalf("zfp tuning failed: %v", err)
	}
	if math.Abs(res.ratio-12) > 0.35*12 {
		t.Fatalf("achieved %v", res.ratio)
	}
}

func TestTuneRatioUnreachable(t *testing.T) {
	in := field(3)
	// A ratio of 10 million is unreachable in the search range.
	if _, err := run(t, newOpt(t, keyTargetRatio, 1e7), in); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("expected ErrNoSolution, got %v", err)
	}
	c := newOpt(t)
	if err := c.SetOptions(core.NewOptions().SetValue(keyTargetRatio, 0.5)); !errors.Is(err, core.ErrInvalidOption) {
		t.Fatalf("ratio <= 1: err = %v, want ErrInvalidOption", err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(keyTargetRatio, 10.0).SetValue(keyTargetPSNR, 60.0)); !errors.Is(err, core.ErrInvalidOption) {
		t.Fatalf("both targets: err = %v, want ErrInvalidOption", err)
	}
}

func TestTunePSNRMeetsFloor(t *testing.T) {
	in := field(4)
	target := 60.0
	res, err := run(t, newOpt(t, keyTargetPSNR, target), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.psnr < target {
		t.Fatalf("PSNR %v below floor %v", res.psnr, target)
	}
	// A lower floor should allow an equal-or-better ratio.
	loose, err := run(t, newOpt(t, keyTargetPSNR, 40.0), in)
	if err != nil {
		t.Fatal(err)
	}
	if loose.psnr < 40 || loose.ratio < res.ratio-1e-9 {
		t.Fatalf("looser floor: PSNR %v, ratio %v vs %v", loose.psnr, loose.ratio, res.ratio)
	}
}

// TestBestCompressorSearch races four candidates at one bound; sz_threadsafe
// has the highest ratio on this field.
func TestBestCompressorSearch(t *testing.T) {
	in := field(5)
	res, err := run(t, newOpt(t, keyCompressors, "sz_threadsafe,zfp,flate,noop", core.KeyAbs, 0.01), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.chosen != "sz_threadsafe" || res.evaluations != 4 || res.bound != 0 {
		t.Fatalf("race at pressio:abs=0.01: %+v", res)
	}
	if got := compressAt(t, "sz_threadsafe", in, 0.01); string(got) != string(res.payload) {
		t.Fatal("the race's stream is not the winner's at the caller's bound")
	}
}

func TestBestCompressorAllFail(t *testing.T) {
	in := core.FromInt32s([]int32{1, 2, 3})
	// Lossy float-only compressors all fail on int data.
	c := newOpt(t, keyCompressors, "sz_threadsafe,fpzip", core.KeyAbs, 0.1)
	if _, err := core.Compress(c, in); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

// TestNoTargetCompressesAtCallersBound: a search leaves no bound behind, so
// a later call without a target compresses at the caller's bound.
func TestNoTargetCompressesAtCallersBound(t *testing.T) {
	in := field(6)
	c := newOpt(t, keyTargetRatio, 20.0, core.KeyAbs, 0.01)
	if res, err := run(t, c, in); err != nil || res.bound == 0.01 {
		t.Fatalf("search: %+v, %v", res, err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(keyTargetRatio, 0.0)); err != nil {
		t.Fatal(err)
	}
	res, err := run(t, c, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := compressAt(t, "sz_threadsafe", in, 0.01); string(got) != string(res.payload) || res.evaluations != 1 {
		t.Fatalf("after a search, a call without a target did not compress at pressio:abs=0.01: %+v", res)
	}
}

func TestFrameFromOutsideCandidatesIsCorrupt(t *testing.T) {
	framed, err := resilience.EncodeFrame("zfp", core.DTypeFloat32, []uint64{4}, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := newOpt(t, keyCompressors, "sz_threadsafe,noop")
	if _, err := core.Decompress(c, core.NewBytes(framed), core.DTypeFloat32, 4); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("frame from zfp through candidates sz_threadsafe,noop: err = %v, want ErrCorrupt", err)
	}
}

// TestClonesSearchIndependently: clones, as pressiod's pool runs them, search
// concurrently and agree on the stream.
func TestClonesSearchIndependently(t *testing.T) {
	in := field(7)
	proto := newOpt(t, keyTargetRatio, 10.0)
	streams := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range streams {
		c := proto.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if comp, err := core.Compress(c, in); err == nil {
				streams[i] = comp.Bytes()
			}
		}()
	}
	wg.Wait()
	for i, s := range streams {
		if len(s) == 0 || string(s) != string(streams[0]) {
			t.Fatalf("clone %d: %d-byte stream differs from clone 0's %d bytes", i, len(s), len(streams[0]))
		}
	}
}
