package sz

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
)

// FuzzDecompressSlice drives the decoder with arbitrary bytes: it must
// never panic, and whenever it accepts a stream the result must match the
// header's shape. (Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzDecompressSlice ./internal/sz` to explore further.)
func FuzzDecompressSlice(f *testing.F) {
	good, _ := CompressSlice([]float32{1, 2, 3, 4, 5, 6}, []uint64{2, 3},
		Params{Mode: core.BoundAbs, Bound: 0.1})
	f.Add(good)
	direct, err := os.ReadFile(filepath.Join("testdata", "golden", "f32_1d_hacc_abs1e-3_szg2.stream"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(direct)
	f.Add(oneRunStream(f))
	f.Add(overSubscribedStream(f))
	f.Add([]byte{})
	f.Add([]byte("SZG1"))
	f.Add(append(append([]byte{}, good[:8]...), 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, stream []byte) {
		vals, dims, err := DecompressSlice[float32](stream)
		if err != nil {
			return
		}
		n := uint64(1)
		for _, d := range dims {
			n *= d
		}
		if uint64(len(vals)) != n {
			t.Fatalf("accepted stream with inconsistent shape: %d vs %v", len(vals), dims)
		}
	})
}

// FuzzCompressRoundTrip drives the full pipeline with arbitrary float bit
// patterns: every accepted input must round trip within the bound (or
// bit-exactly for non-finite values).
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}) // [1.0, 2.0]
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 || len(raw) > 1<<14 {
			return
		}
		n := len(raw) / 4
		vals := make([]float32, n)
		for i := range vals {
			bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
				uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			vals[i] = math.Float32frombits(bits)
		}
		const eb = 0.01
		stream, err := CompressSlice(vals, []uint64{uint64(n)}, Params{Mode: core.BoundAbs, Bound: eb})
		if err != nil {
			t.Fatalf("compress rejected valid input: %v", err)
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatalf("decompress of own stream failed: %v", err)
		}
		for i := range vals {
			a, b := float64(vals[i]), float64(dec[i])
			if math.IsNaN(a) {
				if !math.IsNaN(b) {
					t.Fatalf("elem %d: NaN not preserved", i)
				}
				continue
			}
			if math.IsInf(a, 0) {
				if a != b {
					t.Fatalf("elem %d: Inf not preserved", i)
				}
				continue
			}
			if math.Abs(a-b) > eb {
				t.Fatalf("elem %d: |%g-%g| > %g", i, a, b, eb)
			}
		}
	})
}
