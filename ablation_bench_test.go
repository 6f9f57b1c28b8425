// Ablation benchmarks for the design decisions DESIGN.md calls out: each
// pair/sweep isolates one choice (quantization interval count, lossless
// backend effort, byte-shuffle pre-pass, chunked parallelism, sparse
// masking) so its cost and benefit are measurable independently. Ratios
// are reported through b.ReportMetric as "ratio".
package pressio

import (
	"compress/flate"
	"testing"

	"pressio/internal/core"
	"pressio/internal/lossless"
	"pressio/internal/sdrbench"
	"pressio/internal/sz"
)

// --- SZ: quantization interval count ---------------------------------------

func benchSZIntervals(b *testing.B, intervals uint32) {
	in := loadBenchData()
	p := sz.Params{Mode: core.BoundValueRangeRel, Bound: 1e-3, MaxQuantIntervals: intervals}
	b.SetBytes(int64(in.ByteLen()))
	for i := 0; i < b.N; i++ {
		stream, err := sz.CompressSlice(in.Float32s(), in.Dims(), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(in.ByteLen())/float64(len(stream)), "ratio")
	}
}

func BenchmarkAblationSZIntervals256(b *testing.B)   { benchSZIntervals(b, 256) }
func BenchmarkAblationSZIntervals4096(b *testing.B)  { benchSZIntervals(b, 4096) }
func BenchmarkAblationSZIntervals65536(b *testing.B) { benchSZIntervals(b, 65536) }

// --- SZ: DEFLATE backend effort ---------------------------------------------

// benchSZLossless is one row of the back-end table: MB/s of the whole
// compress call and the ratio it reaches at one DEFLATE level. Fast is level
// 1, the level an unset LosslessLevel resolves to; Level6 is the one streams
// were written at before; HuffmanOnly skips match finding altogether.
func benchSZLossless(b *testing.B, level int) {
	in := loadBenchData()
	p := sz.Params{Mode: core.BoundValueRangeRel, Bound: 1e-3, LosslessLevel: level}
	b.SetBytes(int64(in.ByteLen()))
	for i := 0; i < b.N; i++ {
		stream, err := sz.CompressSlice(in.Float32s(), in.Dims(), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(in.ByteLen())/float64(len(stream)), "ratio")
	}
}

func BenchmarkAblationSZBackendFast(b *testing.B)        { benchSZLossless(b, flate.BestSpeed) }
func BenchmarkAblationSZBackendLevel6(b *testing.B)      { benchSZLossless(b, 6) }
func BenchmarkAblationSZBackendBest(b *testing.B)        { benchSZLossless(b, flate.BestCompression) }
func BenchmarkAblationSZBackendHuffmanOnly(b *testing.B) { benchSZLossless(b, flate.HuffmanOnly) }

// --- Lossless: byte shuffle before DEFLATE ----------------------------------

func benchShuffle(b *testing.B, shuffle bool) {
	in := loadBenchData()
	raw := in.Bytes()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		src := raw
		if shuffle {
			src = lossless.Shuffle(raw, 4)
		}
		packed, err := lossless.Deflate(src, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(raw))/float64(len(packed)), "ratio")
	}
}

func BenchmarkAblationDeflatePlain(b *testing.B)    { benchShuffle(b, false) }
func BenchmarkAblationDeflateShuffled(b *testing.B) { benchShuffle(b, true) }

// --- Chunking: parallel scaling ----------------------------------------------

func benchChunking(b *testing.B, workers int32) {
	in, _ := sdrbench.Generate(sdrbench.NameScaleLetKF, 2, 42)
	c, err := core.NewCompressor("chunking")
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().
		SetValue("chunking:compressor", "sz_threadsafe").
		SetValue("chunking:nthreads", workers).
		SetValue("chunking:chunk_rows", uint64(2)).
		SetValue(core.KeyRel, 1e-3)); err != nil {
		b.Fatal(err)
	}
	out := core.NewEmpty(core.DTypeByte, 0)
	b.SetBytes(int64(in.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Compress(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationChunkingSerial(b *testing.B)   { benchChunking(b, 1) }
func BenchmarkAblationChunkingParallel(b *testing.B) { benchChunking(b, 0) } // GOMAXPROCS

// --- Sparse masking vs dense child -------------------------------------------

func benchSparse(b *testing.B, masked bool) {
	cloud := sdrbench.HurricaneCloud(16, 32, 32, 42)
	name := "fpzip"
	opts := core.NewOptions()
	if masked {
		name = "sparse"
		opts.SetValue("sparse:compressor", "fpzip").SetValue("sparse:threshold", 1e-6)
	}
	c, err := core.NewCompressor(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetOptions(opts); err != nil {
		b.Fatal(err)
	}
	out := core.NewEmpty(core.DTypeByte, 0)
	b.SetBytes(int64(cloud.ByteLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Compress(cloud, out); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cloud.ByteLen())/float64(out.ByteLen()), "ratio")
	}
}

func BenchmarkAblationSparseMasked(b *testing.B) { benchSparse(b, true) }
func BenchmarkAblationSparseDense(b *testing.B)  { benchSparse(b, false) }
