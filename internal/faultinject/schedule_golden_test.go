package faultinject

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pressio/internal/core"
	"pressio/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden from the current injectors")

// scheduleCalls is how many operations each golden row records.
const scheduleCalls = 64

// flippedBit names the one bit position where got differs from want, or
// "?" when the difference is not a single bit.
func flippedBit(want, got []byte) string {
	if len(want) != len(got) {
		return "?"
	}
	pos := -1
	for i := range want {
		for b := 0; b < 8; b++ {
			if (want[i]^got[i])&(1<<b) != 0 {
				if pos >= 0 {
					return "?"
				}
				pos = i*8 + b
			}
		}
	}
	if pos < 0 {
		return "."
	}
	return fmt.Sprint(pos)
}

// compressorOutcome runs one compress through the injector and names what
// happened: "." clean, "D" delayed, "P" panicked, "T" transient error, "E"
// permanent error, or the position of the bit flipped in the clean stream.
func compressorOutcome(c *core.Compressor, in *core.Data, clean []byte) (out string) {
	delays := trace.CounterValue(CtrDelays)
	defer func() {
		if recover() != nil {
			out = "P"
		}
		if trace.CounterValue(CtrDelays) != delays {
			out = "D" + out
		}
	}()
	got, err := core.Compress(c, in)
	switch {
	case err != nil && core.IsTransient(err):
		return "T"
	case err != nil:
		return "E"
	}
	return flippedBit(clean, got.Bytes())
}

// ioOutcome names what one read and then one write through the IO injector
// did: "." clean, "D" delayed, "T" transient error, the flipped bit
// position, "r<n>" a short read of n bytes, "w<n>" a short write of n bytes.
func ioOutcome(t *testing.T, p core.IOPlugin, payload []byte, src, dst string) string {
	t.Helper()
	retarget := func(path string) {
		if err := p.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
			t.Fatal(err)
		}
	}
	delays := trace.CounterValue(CtrDelays)
	var out string
	retarget(src)
	d, err := p.Read(nil)
	switch {
	case err != nil:
		out = "T"
	case d.ByteLen() != uint64(len(payload)):
		out = fmt.Sprintf("r%d", d.ByteLen())
	default:
		out = flippedBit(payload, d.Bytes())
	}
	retarget(dst)
	_ = os.Remove(dst)
	if err := p.Write(core.NewBytes(payload)); err != nil {
		if !core.IsTransient(err) {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(dst); err == nil {
			out += fmt.Sprintf("w%d", len(b))
		} else {
			out += "T"
		}
	}
	if trace.CounterValue(CtrDelays) != delays {
		out = "D" + out
	}
	return out
}

func compressorRow(t *testing.T, seed int64, rates map[string]float64) string {
	t.Helper()
	o := core.NewOptions().SetValue(keyCompressor, "noop").SetValue(keySeed, seed)
	for k, v := range rates {
		o.SetValue(k, v)
	}
	c := newInjector(t, o)
	in := bytesData(64)
	clean, err := core.Compress(newInjector(t, core.NewOptions().SetValue(keyCompressor, "noop")), in)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, scheduleCalls)
	for i := range out {
		out[i] = compressorOutcome(c, in, clean.Bytes())
	}
	return strings.Join(out, " ")
}

func ioRow(t *testing.T, seed int64, rates map[string]float64) string {
	t.Helper()
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src.bin"), filepath.Join(dir, "dst.bin")
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewIO("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions().SetValue(keyIOChild, "posix").SetValue(keyIOSeed, seed)
	for k, v := range rates {
		o.SetValue(k, v)
	}
	if err := p.Opts().Set(o); err != nil {
		t.Fatal(err)
	}
	out := make([]string, scheduleCalls)
	for i := range out {
		out[i] = ioOutcome(t, p, payload, src, dst)
	}
	return strings.Join(out, " ")
}

// TestScheduleGolden pins, for seeds 1 and 42, the first 64 outcomes of each
// compressor and IO fault kind at rate 0.5 alone, and of all kinds together,
// so a refactor of the injectors replays every existing seed's faults.
func TestScheduleGolden(t *testing.T) {
	compressorKinds := []struct {
		name  string
		rates map[string]float64
	}{
		{"error", map[string]float64{keyErrorRate: 0.5}},
		{"permanent", map[string]float64{keyPermanentRate: 0.5}},
		{"panic", map[string]float64{keyPanicRate: 0.5}},
		{"delay", map[string]float64{keyDelayRate: 0.5}},
		{"bitflip", map[string]float64{keyBitflipRate: 0.5}},
		{"all", map[string]float64{keyErrorRate: 0.5, keyPermanentRate: 0.5, keyPanicRate: 0.5, keyDelayRate: 0.5, keyBitflipRate: 0.5}},
	}
	ioKinds := []struct {
		name  string
		rates map[string]float64
	}{
		{"error", map[string]float64{keyIOErrorRate: 0.5}},
		{"delay", map[string]float64{keyIODelayRate: 0.5}},
		{"bitflip", map[string]float64{keyIOBitflipRate: 0.5}},
		{"shortread", map[string]float64{keyIOShortReadRate: 0.5}},
		{"shortwrite", map[string]float64{keyIOShortWriteRate: 0.5}},
		{"all", map[string]float64{keyIOErrorRate: 0.5, keyIODelayRate: 0.5, keyIOBitflipRate: 0.5, keyIOShortReadRate: 0.5, keyIOShortWriteRate: 0.5}},
	}
	var b strings.Builder
	for _, seed := range []int64{1, 42} {
		for _, k := range compressorKinds {
			fmt.Fprintf(&b, "compressor %s seed=%d: %s\n", k.name, seed, compressorRow(t, seed, k.rates))
		}
		for _, k := range ioKinds {
			fmt.Fprintf(&b, "io %s seed=%d: %s\n", k.name, seed, ioRow(t, seed, k.rates))
		}
	}
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("fault schedules changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
