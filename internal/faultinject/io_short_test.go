package faultinject

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	"pressio/internal/resilience"
	"pressio/internal/trace"
)

// newShortIO builds a faultinject IO wrapper over posix with the given
// short-read/short-write rates and a fixed seed.
func newShortIO(t *testing.T, path string, readRate, writeRate float64) core.IOPlugin {
	t.Helper()
	ioP, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.SetValue(core.KeyIOPath, path)
	o.SetValue(keyIOChild, "posix")
	o.SetValue(keyIOSeed, int64(11))
	o.SetValue(keyIOShortReadRate, readRate)
	o.SetValue(keyIOShortWriteRate, writeRate)
	if err := ioP.Opts().Set(o); err != nil {
		t.Fatal(err)
	}
	return ioP
}

func TestIOShortReadDeliversDeterministicPrefix(t *testing.T) {
	trace.ResetTelemetry()
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	read := func() int {
		d, err := newShortIO(t, path, 1, 0).Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		return int(d.ByteLen())
	}
	first := read()
	if first <= 0 || first >= len(payload) {
		t.Fatalf("short read returned %d bytes of %d, want a strict prefix", first, len(payload))
	}
	if second := read(); second != first {
		t.Fatalf("short read not deterministic: %d then %d bytes", first, second)
	}
	if trace.CounterValue(CtrShortReads) != 2 {
		t.Fatalf("short-read counter %d, want 2", trace.CounterValue(CtrShortReads))
	}
}

// TestIOShortReadCaughtByFrameDecoder is the point of the fault: a truncated
// integrity frame read back from storage must fail decoding with a typed
// error instead of yielding a silently corrupt payload.
func TestIOShortReadCaughtByFrameDecoder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.lpfr")
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	frame, err := resilience.EncodeFrame("noop", core.DTypeByte, []uint64{256}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	// Intact read decodes fine...
	d, err := newShortIO(t, path, 0, 0).Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resilience.DecodeFrame(d.Bytes()); err != nil {
		t.Fatalf("intact frame failed to decode: %v", err)
	}
	// ...a short read must be rejected by the decoder, not accepted torn.
	d, err = newShortIO(t, path, 1, 0).Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(d.ByteLen()) >= len(frame) {
		t.Fatal("short read did not truncate the frame")
	}
	if _, err := resilience.DecodeFrame(d.Bytes()); err == nil {
		t.Fatal("decoder accepted a truncated frame")
	}
}

// TestIOShortWriteErrorsAndAtomicSinkStaysConsistent: a short write surfaces
// a transient io.ErrShortWrite, and because posix writes are atomic
// (temp+fsync+rename) the destination is either absent or a *complete* file
// of the truncated payload — never a half-renamed mess; a prior generation
// would have survived untouched mid-write.
func TestIOShortWriteErrorsAndAtomicSinkStaysConsistent(t *testing.T) {
	trace.ResetTelemetry()
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	err := newShortIO(t, path, 0, 1).Write(core.NewBytes(payload))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write error %v, want io.ErrShortWrite", err)
	}
	if !core.IsTransient(err) {
		t.Fatalf("short write should be transient (retryable): %v", err)
	}
	got, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("torn artifact is %d bytes of %d, want a strict prefix", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("torn artifact is not a prefix at byte %d", i)
		}
	}
	if trace.CounterValue(CtrShortWrites) != 1 {
		t.Fatalf("short-write counter %d, want 1", trace.CounterValue(CtrShortWrites))
	}
}
