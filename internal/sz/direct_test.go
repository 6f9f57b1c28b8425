package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"pressio/internal/core"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
	"pressio/internal/sdrbench"
)

// haccX is lib_codecs' hacc-x field at seed: 131,072 float32 particle
// coordinates.
func haccX(seed int64) *core.Data {
	d, _ := sdrbench.Generate(sdrbench.NameHACC, 2, seed)
	return d
}

var haccAbs = Params{Mode: core.BoundAbs, Bound: 1e-3}

// TestHACCRate pins the rate the direct mode buys: hacc-x at abs 1e-3 in at
// most 18 bits per value (Lorenzo wrote 25.6), within the bound in float32.
func TestHACCRate(t *testing.T) {
	for _, seed := range []int64{20210104, 7, 11} {
		d := haccX(seed)
		vals := d.Float32s()
		stream, err := CompressSlice(vals, d.Dims(), haccAbs)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatal(err)
		}
		if bpv := float64(8*len(stream)) / float64(len(vals)); bpv > 18 {
			t.Errorf("seed %d: %.2f bits per value, want at most 18", seed, bpv)
		}
		if worst := maxAbsErr32(vals, dec); worst > haccAbs.Bound {
			t.Errorf("seed %d: max error %g past the bound %g", seed, worst, haccAbs.Bound)
		}
	}
}

// TestModeSelection: the sampler takes the direct mode for hacc-x and
// Lorenzo for the smooth fields lib_codecs and serve_large compress (so
// their streams keep their SZG1 bytes). TestGoldenStreams pins the choice
// for every golden input: each re-encodes to its recorded stream.
func TestModeSelection(t *testing.T) {
	want := func(name string, d *core.Data, magic string) {
		t.Helper()
		stream, err := CompressSlice(d.Float32s(), d.Dims(), haccAbs)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(stream[:4]); got != magic {
			t.Errorf("%s: %s, want %s", name, got, magic)
		}
	}
	for _, seed := range []int64{20210104, 7, 11} {
		want("hacc-x", haccX(seed), directMagic)
	}
	for i, name := range sdrbench.Names()[:3] {
		d, _ := sdrbench.Generate(name, 2, 20210101+int64(i))
		want(name, d, magic)
	}
	want("serve_large's scale-letkf", sdrbench.ScaleLetKF(16, 128, 128, 20210101), magic)
}

// TestContainersNestDirect: SZMP blocks and SZPW's inner log stream are
// whatever CompressSlice writes, SZG2 included, and decode as such.
func TestContainersNestDirect(t *testing.T) {
	d := haccX(20210104)
	vals := d.Float32s()
	omp, err := core.Compress(ompPlugin(t, 2), d)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := parallelBlocks(omp.Bytes())
	if err != nil || len(blocks) != 2 {
		t.Fatalf("%d blocks, %v; want 2", len(blocks), err)
	}
	for i, b := range blocks {
		if string(b[:4]) != directMagic {
			t.Errorf("block %d is %s, want %s", i, b[:4], directMagic)
		}
	}
	if dtype, dims, err := ParallelHeader(omp.Bytes()); err != nil || dtype != core.DTypeFloat32 || dims[0] != uint64(len(vals)) {
		t.Fatalf("header: %v %v %v", dtype, dims, err)
	}
	dec, err := core.Decompress(ompPlugin(t, 2), omp, core.DTypeFloat32, d.Dims()...)
	if err != nil {
		t.Fatal(err)
	}
	if worst := maxAbsErr32(vals, dec.Float32s()); worst > 1e-3 {
		t.Errorf("sz_omp: max error %g", worst)
	}

	const rel = 1e-2
	pw, err := CompressSlicePW(vals, d.Dims(), rel, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pw, []byte(directMagic)) {
		t.Fatal("the PW_REL log stream is not SZG2")
	}
	back, _, err := DecompressSlicePW[float32](pw)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Abs(float64(back[i])-float64(v)) > rel*math.Abs(float64(v)) {
			t.Fatalf("elem %d: %g decoded as %g, past rel %g", i, v, back[i], rel)
		}
	}
}

// TestDirectGoldenPrefixes: a strict prefix of an SZG2 stream is refused.
func TestDirectGoldenPrefixes(t *testing.T) {
	stream := goldenFile(t, "f32_1d_hacc_abs1e-3_szg2.stream")
	for cut := range len(stream) {
		if _, _, err := DecompressSlice[float32](stream[:cut]); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("prefix of %d of %d bytes: err %v, want ErrCorrupt", cut, len(stream), err)
		}
	}
}

// TestDirectHeaderBudget hands the decoder SZG2 streams of 4096 float32s
// whose headers declare what the encoder never writes: a Huffman alphabet
// past the direct mode's, a lowest bucket past the 32-bit code range at any
// shift. Each is refused before anything is sized by it, within 8x the
// 16 KiB output it declares.
func TestDirectHeaderBudget(t *testing.T) {
	const n = 4096
	stream := func(mode uint64, alphabet uint32) []byte {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = 1 + uint32(i%7)
		}
		huff, err := huffman.Encode(codes, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		shift := mode & 31
		body, err := lossless.Deflate(append(huff, make([]byte, (n*shift+7)/8)...), 1)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := core.AppendFloatShape[float32]([]byte(directMagic), []uint64{n})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{math.Float64bits(1e-3), mode, 0, uint64(len(huff))} {
			hdr = binary.AppendUvarint(hdr, v)
		}
		return append(hdr, body...)
	}
	if _, _, err := DecompressSlice[float32](stream(1<<5|8, directBuckets+1)); err != nil {
		t.Fatalf("a well-formed header: %v", err)
	}
	for _, c := range []struct {
		name     string
		mode     uint64
		alphabet uint32
	}{
		{"alphabet 2^24", 1<<5 | 8, 1 << 24},
		{"alphabet one past the buckets", 1<<5 | 8, directBuckets + 2},
		{"lowest bucket past the range at shift 31", 2<<5 | 31, directBuckets + 1},
		{"lowest bucket past the range at shift 8", 1<<24<<5 | 8, directBuckets + 1},
		{"lowest bucket 2^58", 1 << 63, directBuckets + 1},
	} {
		s := stream(c.mode, c.alphabet)
		var err error
		allocated, _ := measure(func() { _, _, err = DecompressSlice[float32](s) })
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", c.name, err)
		}
		if limit := uint64(8 * 4 * n); allocated > limit {
			t.Errorf("%s: allocated %d bytes, want at most %d (8x the declared output)", c.name, allocated, limit)
		}
	}
}
