// Determinism: compressing the same input twice with the same
// configuration must produce identical bytes for every plugin — required
// for reproducible checkpoints and content-addressed storage.
package pressio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pressio/internal/core"
	"pressio/internal/h5lite"
)

func TestCompressionDeterministic(t *testing.T) {
	in := conformanceInput()
	for _, name := range core.SupportedCompressors() {
		switch name {
		case "thirdparty_test":
			continue
		case "fault_injector", "noise_injector":
			// Deterministic too (seeded), but covered by their own tests.
			continue
		}
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: non-deterministic output (%d vs %d bytes)", name, a.ByteLen(), b.ByteLen())
		}
		// A fresh instance must also agree with the first.
		c2, _ := core.NewCompressor(name)
		d, err := core.Compress(c2, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !a.Equal(d) {
			t.Errorf("%s: instance-dependent output", name)
		}
	}
}

func TestSeededInjectorsDeterministic(t *testing.T) {
	in := conformanceInput()
	for _, name := range []string{"fault_injector", "noise_injector"} {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetOptions(core.NewOptions().SetValue(name+":seed", int64(5))); err != nil {
			t.Fatal(err)
		}
		a, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := core.Compress(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: seeded injector not deterministic", name)
		}
	}
}

// TestFanOutIndependentOfGOMAXPROCS: with the slab policy fixed (chunk_rows
// given), how many workers filter the slabs must not show in the bytes — the
// chunking stream and a saved h5lite container are identical at GOMAXPROCS 1
// and 4.
func TestFanOutIndependentOfGOMAXPROCS(t *testing.T) {
	in := conformanceInput()
	encode := func(procs int) (stream, container []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, err := core.NewCompressor("chunking")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetOptions(core.NewOptions().
			SetValue("chunking:chunk_rows", uint64(5)).
			SetValue("chunking:compressor", "zfp").
			SetValue(core.KeyAbs, 1e-3)); err != nil {
			t.Fatal(err)
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "d.h5l")
		f := h5lite.Create(path)
		if err := f.WriteDataset("d", in, h5lite.DatasetOptions{
			ChunkRows: 5, Filter: "zfp", FilterOptions: map[string]float64{core.KeyAbs: 1e-3},
		}); err != nil {
			t.Fatal(err)
		}
		if err := f.Save(); err != nil {
			t.Fatal(err)
		}
		container, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return comp.Bytes(), container
	}
	stream1, container1 := encode(1)
	stream4, container4 := encode(4)
	if !bytes.Equal(stream1, stream4) {
		t.Errorf("chunking stream differs between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(stream1), len(stream4))
	}
	if !bytes.Equal(container1, container4) {
		t.Errorf("h5lite container differs between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(container1), len(container4))
	}
}
