// End-to-end integration tests: build the real pressio CLI binary and
// drive it as a user would — file-based round trips and the external
// worker protocol across a genuine process boundary.
package pressio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pressio/internal/core"
	"pressio/internal/launch"
)

// binDir holds the CLIs this package's tests build; TestMain removes it
// once they end.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pressio-cli")
	if err == nil {
		binDir = dir
	}
	code := m.Run()
	if binDir != "" {
		_ = os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// builds memoizes one go build per command under cmd/.
var builds sync.Map // command name -> func() (string, error)

// buildCmd builds ./cmd/<name> into binDir once per test binary and returns
// its path, skipping the test when go build is unavailable.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	build, _ := builds.LoadOrStore(name, sync.OnceValues(func() (string, error) {
		if binDir == "" {
			return "", errors.New("no temporary directory")
		}
		bin := filepath.Join(binDir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
			return "", fmt.Errorf("%v: %s", err, out)
		}
		return bin, nil
	}))
	bin, err := build.(func() (string, error))()
	if err != nil {
		t.Skipf("go build unavailable: %v", err)
	}
	return bin
}

func TestCLIBinaryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "pressio")
	dir := t.TempDir()
	in := filepath.Join(dir, "x.bin")
	n := 48 * 48
	vals := make([]float32, n)
	raw := make([]byte, 4*n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 14 * math.Pi))
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(vals[i]))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin,
		"-compressor", "sz", "-mode", "roundtrip",
		"-input", in, "-dims", "48,48", "-dtype", "float32",
		"-o", "pressio:abs=0.001", "-metrics", "size,error_stat").CombinedOutput()
	if err != nil {
		t.Fatalf("cli failed: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "size:compression_ratio=") {
		t.Fatalf("missing ratio in output:\n%s", text)
	}
	if !strings.Contains(text, "error_stat:max_abs_error=") {
		t.Fatalf("missing error stat in output:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "error_stat:max_abs_error="); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable %q", line)
			}
			if v > 0.001 {
				t.Fatalf("CLI round trip violated bound: %v", v)
			}
		}
	}
}

func TestWorkerProtocolAcrossProcessBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "pressio")
	vals := make([]float32, 64*64)
	for i := range vals {
		vals[i] = float32(math.Cos(float64(i) / 9))
	}
	in := core.FromFloat32s(vals, 64, 64)
	ext := launch.External{Binary: bin, Args: []string{"-worker"}}
	comp, dur, err := ext.Compress("sz_threadsafe", map[string]string{"pressio:abs": "0.01"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("no duration measured")
	}
	if comp.ByteLen() == 0 || comp.ByteLen() >= in.ByteLen() {
		t.Fatalf("worker compression size %d", comp.ByteLen())
	}
	// Decode the worker's stream in-process: bound must hold end-to-end.
	c, err := core.NewCompressor("sz_threadsafe")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(c, comp, core.DTypeFloat32, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Float32s() {
		if math.Abs(float64(v-vals[i])) > 0.01 {
			t.Fatalf("elem %d: cross-process bound violated", i)
		}
	}
}
