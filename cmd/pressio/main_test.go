package main

import (
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSample(t *testing.T, path string, n int) []float32 {
	t.Helper()
	vals := make([]float32, n)
	buf := make([]byte, 4*n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 8))
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(vals[i]))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestRunRoundTripMode(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	out := filepath.Join(dir, "x.out")
	vals := writeSample(t, in, 32*32)
	err := run("roundtrip", "sz", in, out, "posix", "posix", "32,32", "float32",
		"size,error_stat", "", false, false, 0, []string{"pressio:abs=0.01"})
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

func TestRunCompressThenDecompress(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	comp := filepath.Join(dir, "x.sz")
	out := filepath.Join(dir, "x.out")
	writeSample(t, in, 24*24)
	err := run("compress", "zfp", in, comp, "posix", "posix", "24,24", "float32",
		"size", "", false, false, 0, []string{"pressio:abs=0.001"})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.Stat(comp)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Size() >= 4*24*24 {
		t.Fatalf("compressed file did not shrink: %d", ci.Size())
	}
	err = run("decompress", "zfp", comp, out, "posix", "posix", "24,24", "float32",
		"", "", false, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := os.Stat(out)
	if err != nil || oi.Size() != 4*24*24 {
		t.Fatalf("decompressed size %v err %v", oi, err)
	}
}

func TestRunNpyIO(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	npyOut := filepath.Join(dir, "x.npy")
	writeSample(t, in, 16*16)
	err := run("roundtrip", "sz_threadsafe", in, npyOut, "posix", "npy", "16,16", "float32",
		"size", "", false, false, 0, []string{"pressio:rel=1e-4"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(npyOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[1:6]) != "NUMPY" {
		t.Fatal("output is not an npy file")
	}
}

func TestRunListAndOptions(t *testing.T) {
	if err := run("", "", "", "", "", "", "", "", "", "", true, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := run("options", "mgard", "", "", "posix", "posix", "", "float32",
		"", "", false, false, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("compress", "no_such", "", "", "posix", "posix", "", "float32",
		"", "", false, false, 0, nil); err == nil {
		t.Fatal("unknown compressor should fail")
	}
	if err := run("fly", "sz", "", "", "posix", "posix", "", "float32",
		"", "", false, false, 0, nil); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if err := run("compress", "sz", "", "", "posix", "posix", "", "float32",
		"", "", false, false, 0, []string{"malformed"}); err == nil {
		t.Fatal("malformed -o should fail")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	writeSample(t, in, 8)
	if err := run("decompress", "sz", in, "", "posix", "posix", "", "float32",
		"", "", false, false, 0, nil); err == nil {
		t.Fatal("decompress without dims should fail")
	}
}

func TestRunOptionsJSON(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	writeSample(t, in, 16*16)
	cfg := filepath.Join(dir, "opts.json")
	jsonOpts := `{"sz:error_bound_mode_str":{"type":"string","value":"abs"},` +
		`"sz:abs_err_bound":{"type":"double","value":0.02}}`
	if err := os.WriteFile(cfg, []byte(jsonOpts), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("roundtrip", "sz", in, "", "posix", "posix", "16,16", "float32",
		"error_stat", cfg, false, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Malformed JSON fails loudly.
	if err := os.WriteFile(cfg, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("roundtrip", "sz", in, "", "posix", "posix", "16,16", "float32",
		"", cfg, false, false, 0, nil); err == nil {
		t.Fatal("malformed json should fail")
	}
}

// TestRunOpt drives the optimizer through the generic CLI: a target ratio, a
// PSNR floor, and a race at the caller's bound each round-trip, and the run
// prints the optimizer's report rows beside the metrics. A wrapped plugin's
// report rows print too.
func TestRunOpt(t *testing.T) {
	in := filepath.Join(t.TempDir(), "x.bin")
	writeSample(t, in, 64*64)
	optRows := []string{"opt:bound=", "opt:evaluations=", "size:compression_ratio=", "error_stat:psnr="}
	for _, tc := range []struct {
		name       string
		compressor string
		opts       []string
		want       []string
	}{
		{"TargetRatio", "opt", []string{"opt:compressors=sz", "opt:target_ratio=10"}, append(optRows, `opt:chosen="sz"`)},
		{"TargetPSNR", "opt", []string{"opt:target_psnr=70"}, append(optRows, `opt:chosen="sz_threadsafe"`)},
		{"Search", "opt", []string{"opt:compressors=sz,zfp,noop", "pressio:abs=0.01"}, append(optRows, "opt:bound=0\n", "opt:evaluations=3\n")},
		{"FallbackReport", "guard", []string{"guard:compressor=fallback", "fallback:compressors=sz_threadsafe,noop", "pressio:abs=0.01"}, []string{`fallback:last_tier="sz_threadsafe"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run("roundtrip", tc.compressor, in, "", "posix", "posix", "64,64", "float32",
					"size,error_stat", "", false, false, 0, tc.opts)
			})
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s %v: output lacks %q:\n%s", tc.compressor, tc.opts, want, out)
				}
			}
		})
	}
}

// captureStdout returns what f prints, failing the test if f fails.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = f()
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
