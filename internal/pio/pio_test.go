package pio

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	_ "pressio/internal/lossless" // register filter compressors
	_ "pressio/internal/sz"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func newIO(t *testing.T, name, path string) core.IOPlugin {
	t.Helper()
	io, err := core.NewIO(name)
	if err != nil {
		t.Fatal(err)
	}
	if path != "" {
		if err := io.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
			t.Fatal(err)
		}
	}
	return io
}

func sample32() *core.Data {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 6*8)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	return core.FromFloat32s(vals, 6, 8)
}

func TestPosixRoundTrip(t *testing.T) {
	path := tempPath(t, "data.bin")
	io := newIO(t, "posix", path)
	d := sample32()
	if err := io.Write(d); err != nil {
		t.Fatal(err)
	}
	got, err := io.Read(core.NewEmpty(core.DTypeFloat32, 6, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatal("posix round trip mismatch")
	}
	// Without a hint the raw bytes come back.
	raw, err := io.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.DType() != core.DTypeByte || raw.ByteLen() != d.ByteLen() {
		t.Fatalf("raw read: %v", raw)
	}
}

func TestPosixBadSizeHint(t *testing.T) {
	path := tempPath(t, "data.bin")
	io := newIO(t, "posix", path)
	if err := io.Write(sample32()); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Read(core.NewEmpty(core.DTypeFloat64, 100, 100)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	path := tempPath(t, "data.csv")
	io := newIO(t, "csv", path)
	vals := []float64{1.5, -2, 3.25, 4, 5.125, 6}
	d := core.FromFloat64s(vals, 2, 3)
	if err := io.Write(d); err != nil {
		t.Fatal(err)
	}
	got, err := io.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatalf("csv round trip: %v vs %v", got, d)
	}
	// With a float32 hint the data is cast.
	got32, err := io.Read(core.NewEmpty(core.DTypeFloat32, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got32.DType() != core.DTypeFloat32 {
		t.Fatalf("hint cast: %v", got32)
	}
}

func TestCSVRaggedRejected(t *testing.T) {
	path := tempPath(t, "bad.csv")
	if err := os.WriteFile(path, []byte("1,2,3\n4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	io := newIO(t, "csv", path)
	if _, err := io.Read(nil); err == nil {
		t.Fatal("expected ragged row error")
	}
}

func TestNPYRoundTripAllTypes(t *testing.T) {
	for _, dt := range []core.DType{
		core.DTypeFloat32, core.DTypeFloat64,
		core.DTypeInt16, core.DTypeInt32, core.DTypeInt64,
		core.DTypeUint8, core.DTypeUint32,
	} {
		path := tempPath(t, "a.npy")
		io := newIO(t, "npy", path)
		d := core.NewData(dt, 3, 4)
		for i := range d.Bytes() {
			d.Bytes()[i] = byte(i * 7)
		}
		if err := io.Write(d); err != nil {
			t.Fatalf("%s: write: %v", dt, err)
		}
		got, err := io.Read(nil)
		if err != nil {
			t.Fatalf("%s: read: %v", dt, err)
		}
		if !got.Equal(d) {
			t.Fatalf("%s: npy round trip mismatch", dt)
		}
	}
}

func TestNPYHeaderDetails(t *testing.T) {
	d := core.FromFloat64s([]float64{1, 2, 3}, 3)
	b, err := FormatNPY(d)
	if err != nil {
		t.Fatal(err)
	}
	// Payload must start 64-byte aligned.
	got, err := ParseNPY(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatal("1-D npy mismatch")
	}
	if _, err := ParseNPY([]byte("not numpy")); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestIotaGeneratesSequence(t *testing.T) {
	io, err := core.NewIO("iota")
	if err != nil {
		t.Fatal(err)
	}
	dims := core.NewData(core.DTypeUint64, 2)
	copy(dims.Uint64s(), []uint64{4, 5})
	opts := core.NewOptions().
		Set("iota:dims", core.NewOption(dims)).
		SetValue("iota:dtype", "float64").
		SetValue("iota:start", 10.0)
	if err := io.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	d, err := io.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.DType() != core.DTypeFloat64 || d.Len() != 20 {
		t.Fatalf("iota: %v", d)
	}
	for i, v := range d.Float64s() {
		if v != 10+float64(i) {
			t.Fatalf("iota elem %d = %v", i, v)
		}
	}
	if err := io.Write(d); err == nil {
		t.Fatal("iota write should fail")
	}
}

func TestSelectSubregion(t *testing.T) {
	// 4x4 matrix 0..15, select rows 1-2, cols 1-2.
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	d := core.FromFloat64s(vals, 4, 4)
	sub, err := Subregion(d, []uint64{1, 1}, []uint64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10}
	for i, v := range sub.Float64s() {
		if v != want[i] {
			t.Fatalf("sub[%d] = %v want %v", i, v, want[i])
		}
	}
	if _, err := Subregion(d, []uint64{0, 0}, []uint64{5, 5}); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if _, err := Subregion(d, []uint64{0}, []uint64{2}); err == nil {
		t.Fatal("expected rank mismatch error")
	}
}

func TestSelectPluginComposition(t *testing.T) {
	path := tempPath(t, "full.npy")
	w := newIO(t, "npy", path)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := w.Write(core.FromFloat64s(vals, 10, 10)); err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewIO("select")
	if err != nil {
		t.Fatal(err)
	}
	start := core.NewData(core.DTypeUint64, 2)
	copy(start.Uint64s(), []uint64{2, 3})
	end := core.NewData(core.DTypeUint64, 2)
	copy(end.Uint64s(), []uint64{4, 6})
	opts := core.NewOptions().
		SetValue("select:io", "npy").
		SetValue(core.KeyIOPath, path).
		Set("select:start", core.NewOption(start)).
		Set("select:end", core.NewOption(end))
	if err := sel.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	sub, err := sel.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumDims() != 2 || sub.Dims()[0] != 2 || sub.Dims()[1] != 3 {
		t.Fatalf("sub dims %v", sub.Dims())
	}
	if sub.Float64s()[0] != 23 {
		t.Fatalf("sub[0] = %v", sub.Float64s()[0])
	}
}

func TestNoopStoresData(t *testing.T) {
	io, _ := core.NewIO("noop")
	if _, err := io.Read(nil); err == nil {
		t.Fatal("empty noop read should fail")
	}
	d := sample32()
	if err := io.Write(d); err != nil {
		t.Fatal(err)
	}
	got, err := io.Read(nil)
	if err != nil || !got.Equal(d) {
		t.Fatalf("noop round trip: %v", err)
	}
}

func TestH5LitePluginWithFilter(t *testing.T) {
	path := tempPath(t, "c.h5l")
	io, err := core.NewIO("h5lite")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions().
		SetValue(core.KeyIOPath, path).
		SetValue("h5:dataset", "pressure").
		SetValue("h5:filter", "sz").
		SetValue("h5:filter_abs", 1e-3).
		SetValue("h5:chunk_rows", uint64(2))
	if err := io.Opts().Set(opts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float32, 8*16)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/9) + 0.001*rng.NormFloat64())
	}
	d := core.FromFloat32s(vals, 8, 16)
	if err := io.Write(d); err != nil {
		t.Fatal(err)
	}
	got, err := io.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.DType() != core.DTypeFloat32 || got.Len() != d.Len() {
		t.Fatalf("h5 read: %v", got)
	}
	for i := range vals {
		if math.Abs(float64(got.Float32s()[i]-vals[i])) > 1e-3 {
			t.Fatalf("elem %d error beyond filter bound", i)
		}
	}
}

func TestEnumerationsIncludeAllPlugins(t *testing.T) {
	names := core.SupportedIO()
	for _, want := range []string{"posix", "csv", "npy", "iota", "select", "noop", "h5lite"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("io plugin %q not registered (have %v)", want, names)
		}
	}
}
