package meta

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
)

func goldenFile(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenCase is one framed meta-compressor over the noop child: the frame is
// the only thing between <name>.in and <name>.stream.
type goldenCase struct {
	name  string // the compressor, and the file stem under testdata/golden
	dtype core.DType
	dims  []uint64
	opts  map[string]any
}

var goldenCases = []goldenCase{
	{"chunking", core.DTypeFloat32, []uint64{12, 8}, map[string]any{"chunking:chunk_rows": uint64(5)}},
	{"sparse", core.DTypeFloat32, []uint64{8, 12}, map[string]any{"sparse:threshold": 0.5}},
	{"transpose", core.DTypeFloat32, []uint64{4, 6, 5}, map[string]any{"transpose:axes": []uint64{1, 2, 0}}},
	{"resize", core.DTypeFloat32, []uint64{6, 8, 1}, map[string]any{"resize:dims": []uint64{6, 8}}},
	{"delta_encoding", core.DTypeFloat64, []uint64{10, 6}, nil},
	{"linear_quantizer", core.DTypeFloat32, []uint64{9, 7}, map[string]any{"linear_quantizer:step": 0.01}},
}

func (c goldenCase) compressor(t testing.TB) *core.Compressor {
	t.Helper()
	comp, err := core.NewCompressor(c.name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().SetValue(c.name+":compressor", "noop")
	for k, v := range c.opts {
		if list, ok := v.([]uint64); ok {
			d := core.NewData(core.DTypeUint64, uint64(len(list)))
			copy(d.Uint64s(), list)
			v = d
		}
		opts.SetValue(k, v)
	}
	if err := comp.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestGoldenStreams pins the six framed meta-compressor formats:
// testdata/golden/<name>.stream is what the encoder of commit 167347b (before
// the shape prelude moved into core) produced for <name>.in, and <name>.out
// what its decoder returned. Today's decoder must reproduce .out bit-exact
// and today's encoder the same stream.
func TestGoldenStreams(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			comp := c.compressor(t)
			stream := goldenFile(t, c.name+".stream")
			dec, err := core.Decompress(comp, core.NewBytes(stream), c.dtype, c.dims...)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.DType() != c.dtype || !equalDims(dec.Dims(), c.dims) {
				t.Fatalf("decoded %s %v, want %s %v", dec.DType(), dec.Dims(), c.dtype, c.dims)
			}
			if !bytes.Equal(dec.Bytes(), goldenFile(t, c.name+".out")) {
				t.Fatal("decoded values differ from the pinned output")
			}
			in, err := core.NewMove(c.dtype, goldenFile(t, c.name+".in"), c.dims...)
			if err != nil {
				t.Fatal(err)
			}
			re, err := core.Compress(comp, in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(re.Bytes(), stream) {
				t.Fatalf("re-encoded stream differs from the pinned one (%d vs %d bytes): a format change needs a new magic", re.ByteLen(), len(stream))
			}
		})
	}
}
