// Command pressio-fuzz is the generic compressor fuzzer (LibPressio-Fuzz):
// it feeds random inputs — random shapes, random values including specials,
// and bit-flipped compressed streams — to every registered compressor, looking
// for panics, failed decompressions, changed element counts and corrupt frames
// that pass validation; it checks no error bound, comparing no decoded value
// with its input. Driving the generic interface, it covers every plugin at
// once; the paper's native fuzzer had to be written per compressor.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"pressio/internal/core"
	"pressio/internal/resilience"

	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/pio"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

func main() {
	var (
		iters       = flag.Int("iterations", 200, "fuzz iterations per compressor")
		seed        = flag.Int64("seed", 1, "rng seed")
		compressors = flag.String("compressors", "", "subset (default: all registered)")
		maxElems    = flag.Int("max-elements", 4096, "max elements per fuzz input")
	)
	flag.Parse()
	names := core.SupportedCompressors()
	if *compressors != "" {
		names = strings.Split(*compressors, ",")
	}
	failures := 0
	for _, name := range names {
		name = strings.TrimSpace(name)
		n := fuzzCompressor(name, *iters, *seed, *maxElems)
		failures += n
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d findings\n", failures)
		os.Exit(1)
	}
	fmt.Println("ok: no findings")
}

// shapeChanging plugins discard elements by design (decimation), so a
// round-trip length change is their contract, not a finding.
var shapeChanging = map[string]bool{"sample": true}

// faultInjecting plugins corrupt their own streams or inject errors on
// purpose; a failed decompress is expected behavior. Panics still count —
// the recover handler reports them regardless.
var faultInjecting = map[string]bool{
	"fault_injector": true,
	"faultinject":    true,
	"noise_injector": true,
}

func fuzzCompressor(name string, iters int, seed int64, maxElems int) int {
	rng := rand.New(rand.NewSource(seed))
	findings := 0
	report := func(format string, args ...any) {
		findings++
		fmt.Printf("[%s] "+format+"\n", append([]any{name}, args...)...)
	}
	for i := 0; i < iters; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					report("panic on iteration %d: %v", i, r)
				}
			}()
			c, err := core.NewCompressor(name)
			if err != nil {
				report("construction failed: %v", err)
				return
			}
			bound := math.Pow(10, -float64(rng.Intn(6)))
			_ = c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, bound))
			in := randomData(rng, maxElems)
			comp, err := core.Compress(c, in)
			if err != nil {
				return // rejecting an input is fine; crashing is not
			}
			dec := core.NewEmpty(in.DType(), in.Dims()...)
			if err := c.Decompress(comp, dec); err != nil {
				if !faultInjecting[name] {
					report("iteration %d: compressed ok but decompress failed: %v", i, err)
				}
				return
			}
			if dec.Len() != in.Len() && !shapeChanging[name] {
				report("iteration %d: length changed %d -> %d", i, in.Len(), dec.Len())
			}
			// Bit-flip the stream: decompression may fail but must not
			// panic (the panic handler above catches violations).
			if comp.ByteLen() > 0 {
				corrupt := comp.Clone()
				bit := rng.Intn(int(comp.ByteLen()) * 8)
				corrupt.Bytes()[bit/8] ^= 1 << (bit % 8)
				_ = c.Decompress(corrupt, core.NewEmpty(in.DType(), in.Dims()...))
			}
			// Frame passes: wrap the stream in an integrity frame, then
			// truncate or corrupt it and decompress through the
			// frame-validated path, which must reject every mutation with an
			// error — never a panic, never silent acceptance of a flipped
			// payload.
			fuzzFrames(rng, c, in, comp, report)
		}()
	}
	fmt.Printf("%-18s %d iterations, %d findings\n", name, iters, findings)
	return findings
}

// fuzzFrames exercises the integrity-frame validation path: a valid frame
// must decode and decompress; truncated frames and payload bit flips must
// fail frame validation with an error. A finding is reported when corruption
// slips through undetected. Panics unwind to the caller's recover, which
// reports them.
func fuzzFrames(rng *rand.Rand, c *core.Compressor, in, comp *core.Data, report func(string, ...any)) {
	framed, err := resilience.EncodeFrame(c.Prefix(), in.DType(), in.Dims(), comp.Bytes())
	if err != nil {
		report("frame encode failed: %v", err)
		return
	}
	f, err := resilience.DecodeFrame(framed)
	if err != nil {
		report("pristine frame rejected: %v", err)
		return
	}
	if err := c.Decompress(core.NewBytes(f.Payload), core.NewEmpty(in.DType(), in.Dims()...)); err != nil {
		if !faultInjecting[c.Prefix()] {
			report("pristine framed payload failed to decompress: %v", err)
		}
	}
	// Truncation at a random point must be rejected, never panic.
	n := rng.Intn(len(framed))
	if _, err := resilience.DecodeFrame(framed[:n]); err == nil {
		report("truncated frame (%d of %d bytes) accepted", n, len(framed))
	}
	// A bit flip anywhere in the payload region must be caught by the CRC.
	if comp.ByteLen() > 0 {
		mut := append([]byte(nil), framed...)
		start := len(mut) - int(comp.ByteLen())
		bit := start*8 + rng.Intn(int(comp.ByteLen())*8)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := resilience.DecodeFrame(mut); err == nil {
			report("payload bit flip at %d accepted by frame validation", bit)
		}
	}
	// An arbitrary bit flip anywhere in the frame may land in the header;
	// decode must return (error or not) without panicking, and if it decodes
	// the payload must still pass the checksum before reaching the decoder.
	mut := append([]byte(nil), framed...)
	bit := rng.Intn(len(mut) * 8)
	mut[bit/8] ^= 1 << (bit % 8)
	if g, err := resilience.DecodeFrame(mut); err == nil {
		_ = c.Decompress(core.NewBytes(g.Payload), core.NewEmpty(g.DType, g.Dims...))
	}
}

func randomData(rng *rand.Rand, maxElems int) *core.Data {
	rank := 1 + rng.Intn(3)
	dims := make([]uint64, rank)
	remaining := maxElems
	for i := range dims {
		dims[i] = uint64(1 + rng.Intn(max(2, remaining/(1<<i))))
		if dims[i] > 64 {
			dims[i] = uint64(1 + rng.Intn(64))
		}
		remaining /= int(dims[i])
		if remaining < 1 {
			remaining = 1
		}
	}
	n := uint64(1)
	for _, d := range dims {
		n *= d
	}
	vals := make([]float32, n)
	mode := rng.Intn(4)
	for i := range vals {
		switch mode {
		case 0:
			vals[i] = float32(rng.NormFloat64())
		case 1:
			vals[i] = float32(math.Sin(float64(i) / 10))
		case 2:
			vals[i] = math.Float32frombits(rng.Uint32()) // arbitrary bits incl. NaN/Inf
		default:
			vals[i] = 0
		}
	}
	return core.FromFloat32s(vals, dims...)
}
