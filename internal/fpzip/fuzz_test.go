package fpzip

import (
	"encoding/binary"
	"math"
	"os"
	"testing"
)

// FuzzDecompressSlice drives the predictive decoder with arbitrary bytes:
// it must never panic, and whenever it accepts a stream the decoded value
// count must match the header's declared shape. (Runs its seed corpus under
// plain `go test`; use `go test -fuzz=FuzzDecompressSlice ./internal/fpzip`
// to explore further.)
func FuzzDecompressSlice(f *testing.F) {
	good, _ := CompressSlice([]float32{1, 2, 3, 4, 5, 6}, []uint64{2, 3}, Params{})
	f.Add(good)
	lossy, _ := CompressSlice([]float32{0.5, -0.25, 3.25, 8}, []uint64{4}, Params{Precision: 16})
	f.Add(lossy)
	// Residual classes with more than 32 raw bits.
	wide, _ := CompressSlice([]float64{1, -1e300, 3.5, 1e-300}, []uint64{4}, Params{})
	f.Add(wide)
	f.Add([]byte{})
	f.Add([]byte(magicV1))
	f.Add([]byte(magic))
	_, hdrLen, _ := ParseHeader(good)
	f.Add(good[:8])
	f.Add(good[:len(good)-2])                                // truncated raw-bit segment
	f.Add(binary.AppendUvarint(good[:hdrLen:hdrLen], 1<<40)) // rcLen past the end
	// A class code past the model's total.
	f.Add(append(binary.AppendUvarint(good[:hdrLen:hdrLen], 5), 0, 0xff, 0xff, 0xff, 0xff))
	// The encoder no longer writes FPZ1 or FPZ2; pinned streams keep those
	// paths fuzzed.
	if v1, err := os.ReadFile("testdata/golden/f32_lossless.fpz1.stream"); err == nil {
		f.Add(v1)
		f.Add(v1[:len(v1)-2])
	}
	f.Add([]byte(magicV2))
	if v2, err := os.ReadFile("testdata/golden/f32_lossless.fpz2.stream"); err == nil {
		f.Add(v2)
		f.Add(v2[:len(v2)-2])
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		check := func(vals int, dims []uint64, err error) {
			if err != nil {
				return
			}
			n := uint64(1)
			for _, d := range dims {
				n *= d
			}
			if uint64(vals) != n {
				t.Fatalf("accepted stream with inconsistent shape: %d vals vs dims %v", vals, dims)
			}
		}
		v32, dims, err := DecompressSlice[float32](stream)
		check(len(v32), dims, err)
		v64, dims, err := DecompressSlice[float64](stream)
		check(len(v64), dims, err)
	})
}

// FuzzCompressRoundTrip feeds arbitrary float32 bit patterns through a
// full-precision compress/decompress cycle, which must be lossless
// bit-for-bit (including NaN payloads and infinities). At full precision
// and at one lossy precision the input picks, FPZ3's stream must decode to
// the same values as the FPZ2 oracle's.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}) // [1.0, 2.0]
	f.Add(make([]byte, 32))
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
		stream, err := CompressSlice(vals, []uint64{uint64(n)}, Params{})
		if err != nil {
			t.Fatalf("lossless compress rejected valid input: %v", err)
		}
		dec, _, err := DecompressSlice[float32](stream)
		if err != nil {
			t.Fatalf("decompress of own stream failed: %v", err)
		}
		if len(dec) != n {
			t.Fatalf("length changed: %d -> %d", n, len(dec))
		}
		for i := range vals {
			if math.Float32bits(vals[i]) != math.Float32bits(dec[i]) {
				t.Fatalf("elem %d: %08x became %08x (lossless mode must be exact)",
					i, math.Float32bits(vals[i]), math.Float32bits(dec[i]))
			}
		}
		for _, prec := range []uint{0, 1 + uint(raw[0])%32} {
			p := Params{Precision: prec}
			v3, err3 := CompressSlice(vals, []uint64{uint64(n)}, p)
			v2, err2 := compressFPZ2(vals, []uint64{uint64(n)}, p)
			if err3 != nil || err2 != nil {
				t.Fatalf("precision %d: compress: %v, FPZ2 oracle: %v", prec, err3, err2)
			}
			dec3, _, err3 := DecompressSlice[float32](v3)
			dec2, _, err2 := DecompressSlice[float32](v2)
			if err3 != nil || err2 != nil {
				t.Fatalf("precision %d: decompress: %v, of the FPZ2 oracle's stream: %v", prec, err3, err2)
			}
			for i := range dec3 {
				if math.Float32bits(dec3[i]) != math.Float32bits(dec2[i]) {
					t.Fatalf("precision %d, elem %d: FPZ3 decodes %08x, FPZ2 %08x",
						prec, i, math.Float32bits(dec3[i]), math.Float32bits(dec2[i]))
				}
			}
		}
	})
}
