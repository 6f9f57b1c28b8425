package lossless

import (
	"testing"

	"pressio/internal/core"
)

// FuzzDecompressBounded drives every lossless plugin with arbitrary bytes
// under a declared float32 shape of 1..4096 elements: each decode must fail
// or yield at most max(declared bytes, stream length). The stream's kind
// byte is rewritten per plugin, so every input reaches every decoder.
// (Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzDecompressBounded ./internal/lossless` to explore.)
func FuzzDecompressBounded(f *testing.F) {
	streams, err := bombs()
	if err != nil {
		f.Fatal(err)
	}
	for _, stream := range streams {
		f.Add(stream, uint16(1023))
	}
	f.Add([]byte{}, uint16(0))
	decoders := map[byte]*core.Compressor{}
	for _, name := range []string{"noop", "flate", "gzip", "zlib", "rle", "shuffle", "bitshuffle", "delta"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			f.Fatal(err)
		}
		sample, err := core.Compress(c, core.FromFloat32s([]float32{1, 2, 3, 4}))
		if err != nil {
			f.Fatal(err)
		}
		decoders[sample.Bytes()[0]] = c
		f.Add(sample.Bytes(), uint16(3))
	}
	f.Fuzz(func(t *testing.T, stream []byte, elems uint16) {
		declared := uint64(elems)%4096 + 1
		s := append([]byte(nil), stream...)
		for kind, c := range decoders {
			if len(s) > 0 {
				s[0] = kind
			}
			out, err := core.Decompress(c, core.NewBytes(s), core.DTypeFloat32, declared)
			if err != nil {
				continue
			}
			if got, bound := out.ByteLen(), max(4*declared, uint64(len(s))); got > bound {
				t.Fatalf("%s: %d-byte stream decoded to %d bytes, past max(declared %d, stream %d)",
					c.Prefix(), len(s), got, 4*declared, len(s))
			}
		}
	})
}
