package meta

import (
	"encoding/binary"
	"errors"
	"math"
	"path"
	"testing"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// prelude opens a framed stream for a float32 field of four elements.
func prelude(magic string) []byte {
	return append([]byte(magic), byte(core.DTypeFloat32), 1, 4)
}

// sparseStream frames the given occupancy runs and dense count with no
// child payload.
func sparseStream(t testing.TB, dense uint64, runs ...uint64) []byte {
	t.Helper()
	var mask []byte
	for _, r := range runs {
		mask = binary.AppendUvarint(mask, r)
	}
	packed, err := lossless.Deflate(mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint(prelude(sparseMagic), dense)
	b = binary.AppendUvarint(b, uint64(len(packed)))
	return append(b, packed...)
}

// hostileStreams are the three decoder crashers this package shipped with,
// keyed by "<compressor>/<what>": sizes read from the stream that wrapped an
// addition past its bound check.
func hostileStreams(t testing.TB) map[string][]byte {
	// One chunk of four rows whose payload length, added to the offset of
	// the 16 bytes that follow, wraps to less than the stream length.
	chunk := binary.AppendUvarint(prelude(chunkingMagic), 1)
	chunk = binary.AppendUvarint(chunk, 4)
	chunk = binary.AppendUvarint(chunk, math.MaxUint64-5)
	chunk = append(chunk, make([]byte, 16)...)
	return map[string][]byte{
		"chunking/length_wraps_offset": chunk,
		// The mask marks all four cells occupied; the stream declares none.
		"sparse/mask_exceeds_dense": sparseStream(t, 0, 0, 4),
		// idx+run wraps to zero, passing "idx+run > total".
		"sparse/run_wraps_index": sparseStream(t, 0, 1, math.MaxUint64),
	}
}

func TestHostileSizesAreCorrupt(t *testing.T) {
	for name, stream := range hostileStreams(t) {
		t.Run(name, func(t *testing.T) {
			comp := goldenCase{name: path.Dir(name)}.compressor(t)
			_, err := core.Decompress(comp, core.NewBytes(stream), core.DTypeFloat32, 4)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("error = %v, want one wrapping core.ErrCorrupt", err)
			}
		})
	}
}

// TestEncodersRejectRankPastHeader: the rank travels in one byte capped at
// core.MaxRank; a deeper tensor must be refused, not recorded truncated.
func TestEncodersRejectRankPastHeader(t *testing.T) {
	dims := make([]uint64, core.MaxRank+1)
	for i := range dims {
		dims[i] = 1
	}
	in := core.FromFloat32s([]float32{1}, dims...)
	for _, c := range goldenCases {
		if c.name == "transpose" || c.name == "resize" {
			c.opts = nil // the golden axes and dims are for another rank
		}
		if _, err := core.Compress(c.compressor(t), in); !errors.Is(err, core.ErrInvalidDims) {
			t.Errorf("%s: rank %d input: error = %v, want ErrInvalidDims", c.name, len(dims), err)
		}
	}
}

// FuzzDecompress drives every framed meta-compressor, over the noop child,
// with arbitrary bytes: none may panic, and an accepted stream must decode
// to a buffer that matches its own shape. (Runs its seed corpus under plain
// `go test`; use `go test -fuzz=FuzzDecompress ./internal/meta` to explore.)
func FuzzDecompress(f *testing.F) {
	for _, c := range goldenCases {
		f.Add(goldenFile(f, c.name+".stream"))
	}
	for _, stream := range hostileStreams(f) {
		f.Add(stream)
	}
	f.Add([]byte{})
	var decoders []*core.Compressor
	for _, c := range goldenCases {
		decoders = append(decoders, c.compressor(f))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		// chunking and sparse allocate what the prelude declares (an empty
		// field of any size is a legitimate 25-byte sparse stream), so the
		// harness, not the decoder, bounds what it is willing to commit.
		if len(stream) > 5 {
			if _, n, _, err := core.ReadShape(stream[5:], core.MaxRank, maxElems); err == nil && n > 1<<16 {
				return
			}
		}
		for _, comp := range decoders {
			out := core.NewEmpty(core.DTypeUnset)
			if err := comp.Decompress(core.NewBytes(stream), out); err != nil {
				continue
			}
			if out.Len()*uint64(out.DType().Size()) != out.ByteLen() {
				t.Fatalf("%s accepted a stream with inconsistent shape: %v", comp.Prefix(), out)
			}
		}
	})
}
