package sz

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// measure runs f and reports the bytes it allocated and the most goroutines
// alive at any sample taken while it ran, over those alive before it.
func measure(f func()) (allocated uint64, extraGoroutines int) {
	runtime.GC()
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	close(stop)
	<-done
	return after.TotalAlloc - before.TotalAlloc, int(peak.Load()) - base - 1 // less the sampler
}

func ompPlugin(t *testing.T, nthreads int32) *core.Compressor {
	t.Helper()
	c, err := core.NewCompressor("sz_omp")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyNThreads, nthreads).SetValue(core.KeyAbs, 1e-3)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParallelDecodeBudget pins the SZMP case of "hostile bytes cannot bomb":
// a stream that declares 2^20 empty blocks used to start a goroutine per
// declared block whatever nthreads said (a million goroutines, 199 MB, 0.8 s
// to answer ErrCorrupt). The block count is now bounded by the stream's
// length and the goroutines by nthreads.
func TestParallelDecodeBudget(t *testing.T) {
	const workers = 1
	c := ompPlugin(t, workers)

	hostile := binary.AppendUvarint([]byte(ompMagic), maxParallelBlocks)
	hostile = append(hostile, make([]byte, maxParallelBlocks)...) // every block: size 0
	// The most blocks a stream of that length can hold: each one a bare
	// header (one float32, bound 0) and nothing behind it. What is sized by
	// the count is now sized by the stream, at a larger constant.
	const packed = maxParallelBlocks / (1 + minHeaderBytes)
	dense := binary.AppendUvarint([]byte(ompMagic), packed)
	dense = append(dense, bytes.Repeat([]byte{minHeaderBytes}, packed)...)
	dense = append(dense, bytes.Repeat([]byte(magic+"\x01\x01\x01\x00"), packed)...)

	var err error
	for _, tc := range []struct {
		name   string
		stream []byte
		factor uint64
		decode func([]byte)
	}{
		{"empty blocks, plugin", hostile, 8, func(s []byte) { _, err = core.Decompress(c, core.NewBytes(s), core.DTypeFloat32, 4) }},
		{"empty blocks, native", hostile, 8, func(s []byte) { _, _, err = DecompressParallel[float32](s, workers) }},
		{"bare headers, plugin", dense, 24, func(s []byte) { _, err = core.Decompress(c, core.NewBytes(s), core.DTypeFloat32, 4) }},
		{"bare headers, native", dense, 24, func(s []byte) { _, _, err = DecompressParallel[float32](s, workers) }},
	} {
		allocated, extra := measure(func() { tc.decode(tc.stream) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", tc.name, err)
		}
		if extra > workers+2 {
			t.Errorf("%s: %d goroutines over the baseline, want at most %d", tc.name, extra, workers+2)
		}
		if limit := tc.factor * uint64(len(tc.stream)); allocated > limit {
			t.Errorf("%s: allocated %d bytes, want at most %d (%dx the stream)", tc.name, allocated, limit, tc.factor)
		}
	}

	// The golden stream still decodes, within what its three blocks cost to
	// decode one by one (each pays for its own inflate window and Huffman
	// tables, far more than 960 bytes of output) plus 4x the output for the
	// framing around them.
	stream := goldenFile(t, "omp_f32_2d_abs1e-3.stream")
	want := goldenFile(t, "omp_f32_2d_abs1e-3.out")
	blocks, err := parallelBlocks(stream)
	if err != nil {
		t.Fatal(err)
	}
	limit := 4 * uint64(len(want))
	for _, blk := range blocks {
		n, _ := measure(func() { _, _, err = DecompressSlice[float32](blk) })
		if err != nil {
			t.Fatal(err)
		}
		limit += n
	}
	var dec *core.Data
	allocated, extra := measure(func() {
		dec, err = core.Decompress(c, core.NewBytes(stream), core.DTypeFloat32, 15, 16)
	})
	if err != nil || !bytes.Equal(dec.Bytes(), want) {
		t.Fatalf("golden stream: %v, or decoded values differ from the pinned output", err)
	}
	if extra > workers+2 {
		t.Errorf("golden stream: %d goroutines over the baseline, want at most %d", extra, workers+2)
	}
	if allocated > limit {
		t.Errorf("golden stream: allocated %d bytes, want at most %d", allocated, limit)
	}
}

// TestInflateBudget pins the SZG1 case of "hostile bytes cannot bomb": a
// stream that declares 4 float32s behind a DEFLATE body of 256 MiB of zeros
// (260,932 bytes in all) made sz_threadsafe allocate 1,433 MB before Huffman
// refused it. The header now bounds the body before it is inflated.
func TestInflateBudget(t *testing.T) {
	var body bytes.Buffer
	w, err := flate.NewWriter(&body, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<16)
	for range (256 << 20) / len(zeros) {
		if _, err := w.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hostile, err := core.AppendFloatShape[float32]([]byte(magic), []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	hostile = binary.AppendUvarint(hostile, math.Float64bits(1e-3))
	hostile = binary.AppendUvarint(hostile, 32768) // radius
	hostile = binary.AppendUvarint(hostile, 0)     // outliers
	hostile = binary.AppendUvarint(hostile, 16)    // Huffman bytes
	hostile = append(hostile, body.Bytes()...)

	c, err := core.NewCompressor("sz_threadsafe")
	if err != nil {
		t.Fatal(err)
	}
	allocated, _ := measure(func() {
		_, err = core.Decompress(c, core.NewBytes(hostile), core.DTypeFloat32, 4)
	})
	if !errors.Is(err, lossless.ErrCorrupt) {
		t.Errorf("%d-byte stream: %v, want the inflate limit's ErrCorrupt", len(hostile), err)
	}
	if limit := 8 * uint64(len(hostile)); allocated > limit {
		t.Errorf("%d-byte stream: allocated %d bytes, want at most %d (8x the stream)", len(hostile), allocated, limit)
	}
}

// TestParallelBoundsGoroutines: pressio:nthreads names the block count on
// compress, not a goroutine count, so asking for 2^20 threads over 64 rows
// writes 64 blocks from GOMAXPROCS goroutines; on decompress it is the
// goroutine count however many blocks the stream holds.
func TestParallelBoundsGoroutines(t *testing.T) {
	in := core.FromFloat32s(smooth3D(64, 4, 1, 1), 64, 4)
	var comp, dec *core.Data
	var err error
	_, extra := measure(func() { comp, err = core.Compress(ompPlugin(t, 1<<20), in) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := runtime.GOMAXPROCS(0) + 2; extra > limit {
		t.Errorf("compress: %d goroutines over the baseline, want at most %d", extra, limit)
	}
	if blocks, err := parallelBlocks(comp.Bytes()); err != nil || len(blocks) != 64 {
		t.Fatalf("%d blocks, %v; want one per row", len(blocks), err)
	}
	_, extra = measure(func() { dec, err = core.Decompress(ompPlugin(t, 2), comp, core.DTypeFloat32, 64, 4) })
	if err != nil {
		t.Fatal(err)
	}
	if extra > 2+2 {
		t.Errorf("decompress: %d goroutines over the baseline, want at most 4", extra)
	}
	if worst := maxAbsErr32(in.Float32s(), dec.Float32s()); worst > 1e-3 {
		t.Errorf("round trip error %g", worst)
	}
}
