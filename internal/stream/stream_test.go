package stream

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/lossless"
	_ "pressio/internal/sz"
)

func randomPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(8)) // compressible
	}
	return b
}

func TestStreamRoundTrip(t *testing.T) {
	payload := randomPayload(1<<18, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "flate", nil, WithFrameSize(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	// Write in awkward sizes to exercise frame boundaries.
	for off := 0; off < len(payload); {
		n := 1000 + off%7777
		if off+n > len(payload) {
			n = len(payload) - off
		}
		if _, err := w.Write(payload[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(payload) {
		t.Fatalf("stream did not compress: %d bytes", buf.Len())
	}
	r, err := NewReader(&buf, "flate", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "flate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "flate", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %d bytes, %v", len(got), err)
	}
}

func TestStreamAsyncOrdering(t *testing.T) {
	// Async compression must still write frames in order.
	payload := randomPayload(1<<19, 2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "flate", nil, WithFrameSize(1<<13), WithAsync(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "flate", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("async stream reordered or corrupted frames")
	}
}

func TestStreamTruncationDetected(t *testing.T) {
	payload := randomPayload(1<<15, 3)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "flate", nil, WithFrameSize(1<<12))
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	r, _ := NewReader(bytes.NewReader(cut), "flate", nil)
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("truncated stream should error")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "flate", nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("write after close should fail")
	}
	// Double close is idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressAsyncAPI(t *testing.T) {
	c, err := core.NewCompressor("sz_threadsafe")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 0.01)); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 1024)
	for i := range vals {
		vals[i] = float32(i % 37)
	}
	in := core.FromFloat32s(vals, 32, 32)
	// Launch several overlapping compressions from one handle.
	var chans []<-chan AsyncResult
	for i := 0; i < 8; i++ {
		chans = append(chans, CompressAsync(c, in))
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("async %d: %v", i, res.Err)
		}
		dec := core.NewEmpty(core.DTypeFloat32, 32, 32)
		if err := c.Decompress(res.Data, dec); err != nil {
			t.Fatalf("decompress %d: %v", i, err)
		}
		for j, v := range dec.Float32s() {
			if d := float64(v - vals[j]); d > 0.01 || d < -0.01 {
				t.Fatalf("async %d elem %d bound violated", i, j)
			}
		}
	}
}

func TestUnknownCompressorRejected(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, "bogus", nil); err == nil {
		t.Fatal("unknown compressor should fail")
	}
	if _, err := NewReader(&bytes.Buffer{}, "bogus", nil); err == nil {
		t.Fatal("unknown compressor should fail")
	}
}

func BenchmarkStreamWriteAsync(b *testing.B) {
	payload := randomPayload(1<<20, 1)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "flate", nil, WithFrameSize(1<<16), WithAsync(4))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamWriteSerial(b *testing.B) {
	payload := randomPayload(1<<20, 1)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "flate", nil, WithFrameSize(1<<16))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
