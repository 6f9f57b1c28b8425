package resilience

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pressio/internal/core"
)

// goldenPayload is the pinned frame's payload.
func goldenPayload() []byte {
	p := make([]byte, 40)
	for i := range p {
		p[i] = byte(37*i + 11)
	}
	return p
}

// TestGoldenFrame pins LPFR v1: testdata/golden/frame_v1.lpfr was written by
// EncodeFrame for an sz_threadsafe float32 payload of shape 16x32.
// DecodeFrame must read it field for field and EncodeFrame must write it
// byte for byte; a layout change needs a new version byte.
func TestGoldenFrame(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "frame_v1.lpfr"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(golden)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dims := []uint64{16, 32}
	if f.Prefix != "sz_threadsafe" || f.DType != core.DTypeFloat32 || !slices.Equal(f.Dims, dims) || !bytes.Equal(f.Payload, goldenPayload()) {
		t.Fatalf("decoded %q %v %v %x", f.Prefix, f.DType, f.Dims, f.Payload)
	}
	re, err := EncodeFrame("sz_threadsafe", core.DTypeFloat32, dims, goldenPayload())
	if err != nil || !bytes.Equal(re, golden) {
		t.Fatalf("re-encoded frame differs from the pinned one (err %v): a layout change needs a new version", err)
	}
}
