package lossless

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"pressio/internal/core"
)

func TestCodecFunctionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := [][]byte{
		nil,
		{},
		{0},
		{1, 2, 3, 4, 5, 6, 7, 8},
		make([]byte, 10000), // all zeros
	}
	random := make([]byte, 4096)
	rng.Read(random)
	inputs = append(inputs, random)

	for i, in := range inputs {
		for name, pair := range map[string]struct {
			enc func([]byte) ([]byte, error)
			dec func([]byte) ([]byte, error)
		}{
			"flate": {func(b []byte) ([]byte, error) { return Deflate(b, 6) }, func(b []byte) ([]byte, error) { return Inflate(b, Unbounded) }},
			"gzip":  {func(b []byte) ([]byte, error) { return Gzip(b, 6) }, func(b []byte) ([]byte, error) { return Gunzip(b, Unbounded) }},
			"zlib":  {func(b []byte) ([]byte, error) { return Zlib(b, 6) }, func(b []byte) ([]byte, error) { return Unzlib(b, Unbounded) }},
			"rle":   {func(b []byte) ([]byte, error) { return RLE(b), nil }, func(b []byte) ([]byte, error) { return UnRLE(b, Unbounded) }},
		} {
			enc, err := pair.enc(in)
			if err != nil {
				t.Fatalf("%s input %d: encode: %v", name, i, err)
			}
			dec, err := pair.dec(enc)
			if err != nil {
				t.Fatalf("%s input %d: decode: %v", name, i, err)
			}
			if string(dec) != string(in) {
				t.Fatalf("%s input %d: round trip mismatch", name, i)
			}
		}
	}
}

// TestInflateLimit: a limit at the output's size decodes, one byte under
// refuses; and AppendDeflate over parts writes Deflate's bytes for their
// concatenation behind whatever dst already holds.
func TestInflateLimit(t *testing.T) {
	in := make([]byte, 1<<20) // a megabyte of zeros deflates to ~1 KB
	for i := range 300 {
		in[i*997] = byte(i)
	}
	packed, err := Deflate(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Inflate(packed, uint64(len(in))); err != nil || string(out) != string(in) || cap(out) != len(in)+1 {
		t.Fatalf("limit = size: cap %d, err %v", cap(out), err)
	}
	if _, err := Inflate(packed, uint64(len(in))-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("limit = size-1: %v, want ErrCorrupt", err)
	}
	// A buffer with room for limit+1 bytes takes the byte past the limit and
	// refuses the stream without growing.
	short := make([]byte, 0, len(in))
	if alloc := allocated(func() { _, err = AppendInflate(short, packed, uint64(len(in))-1) }); !errors.Is(err, ErrCorrupt) || alloc >= 64<<10 {
		t.Fatalf("presized for limit = size-1: err %v after %d bytes allocated, want ErrCorrupt and no growth", err, alloc)
	}
	split, err := AppendDeflate([]byte("hdr"), 6, in[:12345], in[12345:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(split[:3]) != "hdr" || string(split[3:]) != string(packed) {
		t.Fatal("AppendDeflate over split parts differs from Deflate of the whole")
	}
}

func TestShuffleRoundTripAllElemSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, elem := range []int{1, 2, 4, 8} {
		b := make([]byte, 128*elem)
		rng.Read(b)
		s := Shuffle(b, elem)
		u := Unshuffle(s, elem)
		if string(u) != string(b) {
			t.Fatalf("shuffle round trip failed for elem size %d", elem)
		}
	}
	// Non-multiple lengths pass through unchanged.
	b := []byte{1, 2, 3}
	if string(Unshuffle(Shuffle(b, 4), 4)) != string(b) {
		t.Fatal("pass-through failed")
	}
}

func TestShuffleImprovesFloatCompression(t *testing.T) {
	// Smooth float32 data: shuffled DEFLATE should beat raw DEFLATE.
	vals := make([]float32, 1<<14)
	for i := range vals {
		vals[i] = float32(100 + math.Sin(float64(i)/50))
	}
	d := core.FromFloat32s(vals)
	raw, err := Deflate(d.Bytes(), 6)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := Deflate(Shuffle(d.Bytes(), 4), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(shuf) >= len(raw) {
		t.Fatalf("shuffle did not help: shuffled %d >= raw %d", len(shuf), len(raw))
	}
}

func TestDeltaVarintRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		d := core.FromInt64s(vals)
		enc, err := DeltaVarint(d.Bytes(), 8)
		if err != nil {
			return false
		}
		dec, err := UnDeltaVarint(enc, 8, Unbounded)
		if err != nil {
			return false
		}
		return string(dec) == string(d.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCompressesMonotone(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(1000000 + i)
	}
	d := core.FromInt64s(vals)
	enc, err := DeltaVarint(d.Bytes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(vals)*2 {
		t.Fatalf("monotone int64s should collapse: got %d bytes for %d values", len(enc), len(vals))
	}
}

func TestPluginRoundTripsThroughFramework(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	in := core.FromFloat64s(vals, 20, 100)
	for _, name := range []string{"noop", "flate", "gzip", "zlib", "rle", "shuffle", "delta"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		dec, err := core.Decompress(c, comp, core.DTypeFloat64, 20, 100)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !dec.Equal(in) {
			t.Fatalf("%s: lossless round trip mismatch", name)
		}
		if dec.DType() != core.DTypeFloat64 || dec.NumDims() != 2 {
			t.Fatalf("%s: shape hint not honored: %v", name, dec)
		}
	}
}

// The lossless plugins' streams record no size, so the output the caller
// declares bounds the decode: a declared shape smaller than the stream's
// content is refused, and a caller declaring no shape still decodes.
func TestPluginInflateBoundedByDeclaredOutput(t *testing.T) {
	in := core.FromFloat64s(make([]float64, 2000), 20, 100)
	for _, name := range []string{"flate", "gzip", "zlib", "rle", "shuffle", "bitshuffle", "delta"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		if _, err := core.Decompress(c, comp, core.DTypeFloat64, 20, 100); err != nil {
			t.Fatalf("%s: the declared shape: %v", name, err)
		}
		if _, err := core.Decompress(c, comp, core.DTypeFloat64, 10); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: 80 declared bytes for 16000: err %v, want ErrCorrupt", name, err)
		}
		dec, err := core.Decompress(c, comp, core.DTypeUnset)
		if err != nil || dec.ByteLen() != in.ByteLen() {
			t.Fatalf("%s: no declared shape: %v", name, err)
		}
	}
}

// bombs returns four decompression bombs, keyed by codec: small streams that
// would decode to far more than the 1024 float32 values (4 KiB) a caller
// declares. rle and delta state a count of 2^28 (256 MiB of bytes; 1 GiB of
// 4-byte elements), which only the declared output refutes; gzip and zlib
// inflate 64 MiB of zeros from ~80 KB.
var bombs = sync.OnceValues(func() (map[string][]byte, error) {
	rle := append([]byte{byte(kindRLE), 4}, binary.AppendUvarint(nil, 1<<28)...)
	rle = append(binary.AppendUvarint(rle, 1<<28), 0)
	deltas, err := Deflate(binary.AppendUvarint(nil, 1<<28), 0)
	if err != nil {
		return nil, err
	}
	var gz, zl bytes.Buffer
	gz.Write([]byte{byte(kindGzip), 4})
	zl.Write([]byte{byte(kindZlib), 4})
	gw, err := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	zw, err := zlib.NewWriterLevel(&zl, zlib.BestSpeed)
	if err != nil {
		return nil, err
	}
	zeros := make([]byte, 1<<20)
	for range 64 {
		_, _ = gw.Write(zeros) // a bytes.Buffer sink cannot fail
		_, _ = zw.Write(zeros)
	}
	if err := errors.Join(gw.Close(), zw.Close()); err != nil {
		return nil, err
	}
	return map[string][]byte{
		"rle":   rle,
		"delta": append([]byte{byte(kindDelta), 4}, deltas...),
		"gzip":  gz.Bytes(),
		"zlib":  zl.Bytes(),
	}, nil
})

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersHonourDeclaredOutput: each bomb is refused with ErrCorrupt
// before the decoder allocates anywhere near what the stream claims.
func TestDecodersHonourDeclaredOutput(t *testing.T) {
	streams, err := bombs()
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range streams {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocated(func() {
			_, err = core.Decompress(c, core.NewBytes(stream), core.DTypeFloat32, 1024)
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %d-byte bomb: err %v, want ErrCorrupt", name, len(stream), err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: %d-byte bomb allocated %d bytes for a 4 KiB declared output", name, len(stream), alloc)
		}
	}
	// With no declared output, delta still refuses a count its bytes cannot
	// hold, before it allocates.
	alloc := allocated(func() { _, err = UnDeltaVarint(binary.AppendUvarint(nil, 1<<28), 4, Unbounded) })
	if !errors.Is(err, ErrCorrupt) || alloc >= 1<<20 {
		t.Errorf("delta count past its bytes, no declared output: err %v after %d bytes allocated, want ErrCorrupt", err, alloc)
	}
}

func TestPluginLevelOption(t *testing.T) {
	c, err := core.NewCompressor("flate")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().SetValue("flate:level", int32(1))
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	got, err := c.Options().GetInt32("flate:level")
	if err != nil || got != 1 {
		t.Fatalf("level: got %d err %v", got, err)
	}
	bad := core.NewOptions().SetValue("flate:level", int32(42))
	if err := c.CheckOptions(bad); err == nil {
		t.Fatal("expected CheckOptions failure for level 42")
	}
	// CheckOptions must not have mutated state.
	if got, _ := c.Options().GetInt32("flate:level"); got != 1 {
		t.Fatalf("CheckOptions mutated state: level %d", got)
	}
}

func TestGenericLosslessLevelOption(t *testing.T) {
	c, _ := core.NewCompressor("gzip")
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyLossless, int32(9))); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Options().GetInt32("gzip:level"); got != 9 {
		t.Fatalf("generic lossless option not mapped: %d", got)
	}
}

func TestDecompressWrongCodecErrors(t *testing.T) {
	in := core.FromFloat32s(make([]float32, 64))
	flateC, _ := core.NewCompressor("flate")
	comp, err := core.Compress(flateC, in)
	if err != nil {
		t.Fatal(err)
	}
	rleC, _ := core.NewCompressor("rle")
	if _, err := core.Decompress(rleC, comp, core.DTypeFloat32, 64); err == nil {
		t.Fatal("expected codec mismatch error")
	}
}

func TestBitShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, elem := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 8, 64, 1000} {
			b := make([]byte, n*elem)
			rng.Read(b)
			got := BitUnshuffle(BitShuffle(b, elem), elem)
			if string(got) != string(b) {
				t.Fatalf("elem %d n %d: bitshuffle round trip failed", elem, n)
			}
		}
	}
}

func TestBitShuffleImprovesBitPlaneStructuredData(t *testing.T) {
	// Bitshuffle wins when entropy is structured per bit plane but every
	// byte changes (fast counters with low-bit noise): byte-level tools
	// see high-entropy bytes, bit planes are nearly constant or periodic.
	vals := make([]int32, 1<<14)
	rng := rand.New(rand.NewSource(12))
	for i := range vals {
		vals[i] = int32(i*3) ^ int32(rng.Intn(4))
	}
	d := core.FromInt32s(vals)
	plain, err := Deflate(d.Bytes(), 6)
	if err != nil {
		t.Fatal(err)
	}
	byteShuf, err := Deflate(Shuffle(d.Bytes(), 4), 6)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := Deflate(BitShuffle(d.Bytes(), 4), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) >= len(plain) {
		t.Fatalf("bitshuffle did not beat plain deflate: %d vs %d", len(bits), len(plain))
	}
	if len(bits) >= len(byteShuf) {
		t.Fatalf("bitshuffle should beat byte shuffle here: %d vs %d", len(bits), len(byteShuf))
	}
}

func TestBitShufflePlugin(t *testing.T) {
	vals := make([]float32, 999) // non multiple of 8: exercises the tail
	for i := range vals {
		vals[i] = float32(i % 13)
	}
	in := core.FromFloat32s(vals)
	c, err := core.NewCompressor("bitshuffle")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 999)
	if err != nil || !dec.Equal(in) {
		t.Fatalf("bitshuffle plugin round trip: %v", err)
	}
}

// TestNoopRefusesEveryPrefix: noop stores the payload verbatim, so a
// truncated stream decodes to fewer bytes than the declared output needs.
// Every strict prefix must be refused as corrupt, and a whole stream decoded
// into a smaller declared shape too, instead of handing back a byte buffer of
// the wrong size.
func TestNoopRefusesEveryPrefix(t *testing.T) {
	c, err := core.NewCompressor("noop")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 12*16*20)
	for i := range vals {
		vals[i] = float32(i)
	}
	comp, err := core.Compress(c, core.FromFloat32s(vals, 12, 16, 20))
	if err != nil {
		t.Fatal(err)
	}
	stream := comp.Bytes()
	for n := range len(stream) {
		out := core.NewEmpty(core.DTypeFloat32, 12, 16, 20)
		if err := c.Decompress(core.NewBytes(stream[:n]), out); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err %v, output %v; want ErrCorrupt", n, len(stream), err, out)
		}
	}
	if _, err := core.Decompress(c, comp, core.DTypeFloat32, 7); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("whole stream into float32[7]: %v, want ErrCorrupt", err)
	}
	if _, err := core.Decompress(c, comp, core.DTypeFloat32, 12, 16, 20); err != nil {
		t.Fatalf("whole stream: %v", err)
	}
}
