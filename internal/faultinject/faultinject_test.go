package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	"pressio/internal/trace"

	_ "pressio/internal/lossless"
	_ "pressio/internal/pio"
)

func bytesData(n int) *core.Data {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return core.NewBytes(b)
}

func newInjector(t *testing.T, opts *core.Options) *core.Compressor {
	t.Helper()
	c, err := core.NewCompressor("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInjectedErrorsAreTransient(t *testing.T) {
	c := newInjector(t, core.NewOptions().
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:error_rate", 1.0))
	_, err := core.Compress(c, bytesData(32))
	if err == nil {
		t.Fatal("error_rate=1 compress succeeded")
	}
	if !core.IsTransient(err) {
		t.Errorf("injected error %v is not transient", err)
	}
}

func TestInjectedPermanentErrorsAreNotTransient(t *testing.T) {
	c := newInjector(t, core.NewOptions().
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:permanent_error_rate", 1.0))
	_, err := core.Compress(c, bytesData(32))
	if err == nil {
		t.Fatal("permanent_error_rate=1 compress succeeded")
	}
	if core.IsTransient(err) {
		t.Errorf("permanent injected error %v classified transient", err)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		c := newInjector(t, core.NewOptions().
			SetValue("faultinject:compressor", "noop").
			SetValue("faultinject:error_rate", 0.5).
			SetValue("faultinject:seed", seed))
		out := make([]bool, 50)
		for i := range out {
			_, err := core.Compress(c, bytesData(8))
			out[i] = err != nil
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical 50-call schedules")
	}
}

func TestRateValidation(t *testing.T) {
	c, err := core.NewCompressor("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	err = c.SetOptions(core.NewOptions().SetValue("faultinject:error_rate", 1.5))
	if !errors.Is(err, core.ErrInvalidOption) {
		t.Errorf("rate 1.5 accepted (err=%v)", err)
	}
	err = c.SetOptions(core.NewOptions().SetValue("faultinject:panic_rate", -0.1))
	if !errors.Is(err, core.ErrInvalidOption) {
		t.Errorf("rate -0.1 accepted (err=%v)", err)
	}
}

func TestBitflipCorruptsStreamAndCounts(t *testing.T) {
	before := trace.CounterValue(CtrBitflips)
	clean := newInjector(t, core.NewOptions().
		SetValue("faultinject:compressor", "noop"))
	flaky := newInjector(t, core.NewOptions().
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:bitflip_rate", 1.0))
	in := bytesData(64)
	want, err := core.Compress(clean, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Compress(flaky, in)
	if err != nil {
		t.Fatal(err)
	}
	if string(want.Bytes()) == string(got.Bytes()) {
		t.Error("bitflip_rate=1 produced a pristine stream")
	}
	if d := trace.CounterValue(CtrBitflips) - before; d != 1 {
		t.Errorf("CtrBitflips delta = %d, want 1", d)
	}
}

func TestCloneDerivesIndependentSchedule(t *testing.T) {
	parent := newInjector(t, core.NewOptions().
		SetValue("faultinject:compressor", "noop").
		SetValue("faultinject:error_rate", 0.5).
		SetValue("faultinject:seed", int64(7)))
	clone := parent.Clone()
	trial := func(c *core.Compressor) []bool {
		out := make([]bool, 40)
		for i := range out {
			_, err := core.Compress(c, bytesData(8))
			out[i] = err != nil
		}
		return out
	}
	a, b := trial(parent), trial(clone)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("clone replayed the parent's schedule; clones must derive fresh seeds")
	}
}

// TestIOClonesDeriveDistinctSchedules: two clones of one IO injector draw
// different schedules, so a cloned fleet does not fault in lockstep.
func TestIOClonesDeriveDistinctSchedules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	parent, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Opts().Set(core.NewOptions().
		SetValue("faultinject_io:io", "posix").
		SetValue("faultinject_io:error_rate", 0.5).
		SetValue(core.KeyIOPath, path)); err != nil {
		t.Fatal(err)
	}
	trial := func(p core.IOPlugin) string {
		out := make([]byte, 40)
		for i := range out {
			out[i] = '.'
			if _, err := p.Read(nil); err != nil {
				out[i] = 'T'
			}
		}
		return string(out)
	}
	if a, b := trial(parent.Clone()), trial(parent.Clone()); a == b {
		t.Errorf("two clones drew the same schedule %s", a)
	}
}

func TestIOWrapperInjectsTransientReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4}, 0o644); err != nil {
		t.Fatal(err)
	}
	io, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue("faultinject_io:io", "posix").
		SetValue("faultinject_io:error_rate", 1.0).
		SetValue(core.KeyIOPath, path)
	if err := io.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Read(nil); !core.IsTransient(err) {
		t.Errorf("injected IO error %v is not transient", err)
	}
}

func TestIOWrapperBitflip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	payload := make([]byte, 128)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	io, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue("faultinject_io:io", "posix").
		SetValue("faultinject_io:bitflip_rate", 1.0).
		SetValue(core.KeyIOPath, path)
	if err := io.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	d, err := io.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, b := range d.Bytes() {
		if b != 0 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("expected exactly one flipped bit's byte to differ, got %d differing bytes", diff)
	}
}

func TestIOWrapperPassthroughWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	io, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue("faultinject_io:io", "posix").
		SetValue(core.KeyIOPath, path)
	if err := io.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	if err := io.Write(core.NewBytes([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Errorf("wrote %q", b)
	}
}
