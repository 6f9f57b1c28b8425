// Fault tests for the chunked stream path: short reads and short writes at
// the transport level, and torn artifacts produced through the faultinject
// IO wrapper, must surface as errors — never as silently truncated data.
package stream

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"

	_ "pressio/internal/faultinject"
	_ "pressio/internal/pio"
)

// dribbleReader delivers at most max bytes per Read — a deterministic
// short-read source, the shape a slow socket or a fault injector produces.
type dribbleReader struct {
	src []byte
	max int
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if len(d.src) == 0 {
		return 0, io.EOF
	}
	n := d.max
	if n > len(p) {
		n = len(p)
	}
	if n > len(d.src) {
		n = len(d.src)
	}
	copy(p, d.src[:n])
	d.src = d.src[n:]
	return n, nil
}

// failAfterWriter accepts limit bytes, then fails with a short write — the
// io.Writer contract for a sink that runs out of space mid-frame.
type failAfterWriter struct {
	buf   bytes.Buffer
	limit int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	room := w.limit - w.buf.Len()
	if room <= 0 {
		return 0, io.ErrShortWrite
	}
	if len(p) <= room {
		return w.buf.Write(p)
	}
	n, _ := w.buf.Write(p[:room])
	return n, io.ErrShortWrite
}

func encodeStream(t *testing.T, payload []byte, frameSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "flate", nil, WithFrameSize(frameSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newFaultIO builds the faultinject IO wrapper over posix with the given
// short-read/short-write rates, mirroring how a chaos harness composes it.
func newFaultIO(t *testing.T, path string, readRate, writeRate float64) core.IOPlugin {
	t.Helper()
	ioP, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.SetValue(core.KeyIOPath, path)
	o.SetValue("faultinject_io:io", "posix")
	o.SetValue("faultinject_io:seed", int64(17))
	o.SetValue("faultinject_io:shortread_rate", readRate)
	o.SetValue("faultinject_io:shortwrite_rate", writeRate)
	if err := ioP.Opts().Set(o); err != nil {
		t.Fatal(err)
	}
	return ioP
}

// TestStreamReaderReassemblesAcrossShortReads: the chunked decoder must
// reassemble frames even when the source dribbles one byte at a time.
func TestStreamReaderReassemblesAcrossShortReads(t *testing.T) {
	payload := randomPayload(1<<16, 3)
	artifact := encodeStream(t, payload, 1<<12)
	for _, max := range []int{1, 3, 7} {
		r, err := NewReader(&dribbleReader{src: artifact, max: max}, "flate", nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("max=%d: %v", max, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("max=%d: round trip mismatch under dribbled reads", max)
		}
	}
}

// TestStreamWriterSurfacesShortWrite: a sink that dies mid-frame must fail
// the stream loudly; a Close after the failure must not report success.
func TestStreamWriterSurfacesShortWrite(t *testing.T) {
	payload := randomPayload(1<<16, 4)
	sink := &failAfterWriter{limit: 512}
	w, err := NewWriter(sink, "flate", nil, WithFrameSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(payload)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("short-write sink was not reported by Write or Close")
	}
	if werr != nil && !errors.Is(werr, io.ErrShortWrite) {
		t.Fatalf("write error %v does not carry io.ErrShortWrite", werr)
	}
}

// TestStreamTornArtifactFromShortWriteIsRejected composes the stream encoder
// with the faultinject IO wrapper: the injected short write tears the
// artifact on disk, and decoding the torn artifact must fail instead of
// returning a prefix of the data.
func TestStreamTornArtifactFromShortWriteIsRejected(t *testing.T) {
	payload := randomPayload(1<<16, 5)
	artifact := encodeStream(t, payload, 1<<12)
	path := filepath.Join(t.TempDir(), "torn.lps")

	if err := newFaultIO(t, path, 0, 1).Write(core.NewBytes(artifact)); err == nil {
		t.Fatal("injected short write reported success")
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) == 0 || len(torn) >= len(artifact) {
		t.Fatalf("torn artifact is %d bytes of %d, want a strict prefix", len(torn), len(artifact))
	}
	r, err := NewReader(bytes.NewReader(torn), "flate", nil)
	if err == nil {
		_, err = io.ReadAll(r)
	}
	if err == nil {
		t.Fatal("decoder accepted a torn stream artifact")
	}
}

// TestStreamShortReadFromStorageIsRejected: an intact artifact read back
// through an injected short read is a prefix, and the decoder must reject
// it rather than silently deliver partial data.
func TestStreamShortReadFromStorageIsRejected(t *testing.T) {
	payload := randomPayload(1<<16, 6)
	artifact := encodeStream(t, payload, 1<<12)
	path := filepath.Join(t.TempDir(), "ok.lps")
	if err := os.WriteFile(path, artifact, 0o644); err != nil {
		t.Fatal(err)
	}

	// Intact read decodes fine through the same wrapper at rate 0.
	d, err := newFaultIO(t, path, 0, 0).Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(d.Bytes()), "flate", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact artifact did not round-trip: %v", err)
	}

	// Short read delivers a strict prefix; decode must fail.
	d, err = newFaultIO(t, path, 1, 0).Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(d.ByteLen()) >= len(artifact) {
		t.Fatal("short read did not truncate the artifact")
	}
	r, err = NewReader(bytes.NewReader(d.Bytes()), "flate", nil)
	if err == nil {
		_, err = io.ReadAll(r)
	}
	if err == nil {
		t.Fatal("decoder accepted a short-read artifact")
	}
}
