package huffman_test

import (
	"encoding/binary"
	"testing"

	"pressio/internal/core"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
	"pressio/internal/sdrbench"
	"pressio/internal/sz"
)

// BenchmarkDecodeServeLarge decodes the quantisation codes sz writes for the
// repository benchmark's serve_large field at abs 1e-3: 262,144 codes over
// sz's usual alphabet of 65,536 symbols, a few of them past the lookup
// table, so the table build counts as it does in sz.
func BenchmarkDecodeServeLarge(b *testing.B) {
	d := sdrbench.ScaleLetKF(16, 128, 128, 20210101)
	stream, err := sz.CompressSlice(d.Float32s(), d.Dims(), sz.Params{Mode: core.BoundAbs, Bound: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	// The header's last three uvarints are the radius, the outlier count
	// and the Huffman length; the Huffman stream leads the inflated body.
	_, pos, err := sz.ParseHeader(stream)
	if err != nil {
		b.Fatal(err)
	}
	var huffLen uint64
	for range 3 {
		v, n := binary.Uvarint(stream[pos:])
		huffLen, pos = v, pos+n
	}
	body, err := lossless.Inflate(stream[pos:], 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	codes, alphabet, err := huffman.Decode(body[:huffLen])
	if err != nil || alphabet != 1<<16 {
		b.Fatalf("alphabet %d, err %v", alphabet, err)
	}
	dst := make([]uint32, 0, len(codes))
	b.SetBytes(int64(4 * len(codes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := huffman.AppendDecode(dst, body[:huffLen], alphabet); err != nil {
			b.Fatal(err)
		}
	}
}
