package main

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestApplyResilienceFlags(t *testing.T) {
	name, opts := applyResilienceFlags("sz", false, "", false, stringList{"pressio:abs=0.01"})
	if name != "sz" || len(opts) != 1 {
		t.Errorf("no flags: got %q %v", name, opts)
	}
	name, opts = applyResilienceFlags("sz", true, "", false, nil)
	if name != "guard" || len(opts) != 1 || opts[0] != "guard:compressor=sz" {
		t.Errorf("-guard: got %q %v", name, opts)
	}
	name, opts = applyResilienceFlags("sz", false, "zfp,noop", false, nil)
	if name != "fallback" || len(opts) != 1 || opts[0] != "fallback:compressors=sz,zfp,noop" {
		t.Errorf("-fallback: got %q %v", name, opts)
	}
	name, opts = applyResilienceFlags("sz", false, "", true, nil)
	if name != "breaker" || len(opts) != 1 || opts[0] != "breaker:compressor=sz" {
		t.Errorf("-breaker: got %q %v", name, opts)
	}
	name, opts = applyResilienceFlags("sz", true, "noop", false, stringList{"pressio:abs=0.01"})
	if name != "guard" || len(opts) != 3 {
		t.Fatalf("-guard -fallback: got %q %v", name, opts)
	}
	if opts[0] != "guard:compressor=fallback" || opts[1] != "fallback:compressors=sz,noop" {
		t.Errorf("composition options: %v", opts)
	}
	// User-supplied -o flags stay last so they win in the key=value map.
	if opts[2] != "pressio:abs=0.01" {
		t.Errorf("user option not last: %v", opts)
	}
}

// TestApplyResilienceFlagsTripleComposition pins the documented wrapping
// order when all three flags compose: the breaker is outermost, guard wraps
// the fallback chain, and the selected compressor is tier zero of the chain —
// breaker{guard{fallback{sz,noop}}} — regardless of flag order.
func TestApplyResilienceFlagsTripleComposition(t *testing.T) {
	name, opts := applyResilienceFlags("sz", true, "noop", true, stringList{"pressio:abs=0.01"})
	if name != "breaker" {
		t.Fatalf("outermost compressor %q, want breaker", name)
	}
	want := stringList{
		"breaker:compressor=guard",
		"guard:compressor=fallback",
		"fallback:compressors=sz,noop",
		"pressio:abs=0.01", // user option last, so it wins in the kv map
	}
	if len(opts) != len(want) {
		t.Fatalf("triple composition: got %v, want %v", opts, want)
	}
	for i := range want {
		if opts[i] != want[i] {
			t.Errorf("opts[%d] = %q, want %q", i, opts[i], want[i])
		}
	}
}

// TestRunTripleCompositionRoundTrip drives the full CLI path with all three
// resilience flags enabled and verifies the composed stack still honours the
// error bound end to end.
func TestRunTripleCompositionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	out := filepath.Join(dir, "x.out")
	vals := writeSample(t, in, 32*32)
	name, opts := applyResilienceFlags("sz_threadsafe", true, "noop", true, stringList{"pressio:abs=0.01"})
	err := run("roundtrip", name, in, out, "posix", "posix", "32,32", "float32",
		"size", "", false, false, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if math.Abs(float64(got-vals[i])) > 0.01 {
			t.Fatalf("elem %d bound violated", i)
		}
	}
}

func TestRunGuardedFallbackRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	out := filepath.Join(dir, "x.out")
	vals := writeSample(t, in, 32*32)
	name, opts := applyResilienceFlags("sz_threadsafe", true, "noop", false, stringList{"pressio:abs=0.01"})
	err := run("roundtrip", name, in, out, "posix", "posix", "32,32", "float32",
		"size", "", false, false, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*len(vals) {
		t.Fatalf("output size %d", len(raw))
	}
	for i := range vals {
		got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if math.Abs(float64(got-vals[i])) > 0.01 {
			t.Fatalf("elem %d bound violated", i)
		}
	}
}

func TestRunGuardedCompressWritesFrame(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	comp := filepath.Join(dir, "x.lpfr")
	writeSample(t, in, 24*24)
	// -guard -fallback noop: the fallback chain inside the guard frames.
	name, opts := applyResilienceFlags("sz_threadsafe", true, "noop", false, stringList{"pressio:abs=0.01"})
	err := run("compress", name, in, comp, "posix", "posix", "24,24", "float32",
		"size", "", false, false, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 4 || string(raw[:4]) != "LPFR" {
		t.Fatalf("guarded compress did not write an integrity frame (got % x)", raw[:min(8, len(raw))])
	}
	out := filepath.Join(dir, "x.out")
	err = run("decompress", name, comp, out, "posix", "posix", "24,24", "float32",
		"", "", false, false, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := os.Stat(out)
	if err != nil || oi.Size() != 4*24*24 {
		t.Fatalf("decompressed size %v err %v", oi, err)
	}
}
