package main

import (
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/sdrbench"
	"pressio/internal/trace"

	// The codecs lib_codecs drives, registered by import.
	_ "pressio/internal/fpzip"
	_ "pressio/internal/mgard"
	_ "pressio/internal/sz"
	_ "pressio/internal/zfp"
)

// absBound is the pointwise absolute error bound of every lossy call the
// benchmark makes, and the bound every round trip is checked against.
const absBound = 1e-3

type codecSpec struct{ short, plugin string }

// libCodecs are the error-bounded codecs of the paper's evaluation. sz runs
// as sz_threadsafe, the variant the daemon pools.
var libCodecs = []codecSpec{
	{"sz", "sz_threadsafe"},
	{"zfp", "zfp"},
	{"mgard", "mgard"},
	{"fpzip", "fpzip"},
}

// libDatasetScale sizes the four synthetic SDRBench fields at 128-512 KiB.
const libDatasetScale = 2

func newBoundedCompressor(plugin string) (*core.Compressor, error) {
	c, err := core.NewCompressor(plugin)
	if err != nil {
		return nil, err
	}
	if err := c.SetOptions(core.NewOptions().SetValue(core.KeyAbs, absBound)); err != nil {
		return nil, fmt.Errorf("%s: %w", plugin, err)
	}
	return c, nil
}

// libFields generates the four datasets. Ratio and speed depend on
// smoothness, sparsity and dimensionality: hacc is 1-D noise, hurricane is
// sparse, scale-letkf and nyx are smooth 3-D fields.
func libFields(seed int64, scale int) ([]*core.Data, error) {
	names := sdrbench.Names()
	out := make([]*core.Data, len(names))
	for i, name := range names {
		d, ok := sdrbench.Generate(name, scale, seed+int64(i))
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		out[i] = d
	}
	return out, nil
}

// libWorkload is a simulation or analysis code linking the library: one
// goroutine, in process, blocking on each call.
type libWorkload struct {
	// scale overrides libDatasetScale when set (the smoke tests' smaller fields).
	scale  int
	fields []*core.Data
	comps  []*core.Compressor
	// stored[ci][fi] is the latest compressed form of field fi under codec
	// ci; the decompress op that follows each compress op reads it.
	stored   [][]*core.Data
	inBytes  int64
	outBytes int64
}

func (w *libWorkload) clients() int { return 1 }

// combos is codecs x fields; a pass is one compress and one decompress call
// per combination.
func (w *libWorkload) combos() int { return len(w.comps) * len(w.fields) }
func (w *libWorkload) cycle() int  { return 2 * w.combos() }
func (w *libWorkload) group() int  { return w.combos() }

func (w *libWorkload) ratio() float64 { return float64(w.inBytes) / float64(w.outBytes) }

func (w *libWorkload) setup(seed int64) error {
	scale := libDatasetScale
	if w.scale > 0 {
		scale = w.scale
	}
	fields, err := libFields(seed, scale)
	if err != nil {
		return err
	}
	w.fields = fields
	w.comps = w.comps[:0]
	w.stored = w.stored[:0]
	for _, c := range libCodecs {
		comp, err := newBoundedCompressor(c.plugin)
		if err != nil {
			return err
		}
		w.comps = append(w.comps, comp)
		w.stored = append(w.stored, make([]*core.Data, len(fields)))
	}
	// The warm-up pass also fixes the ratio: the same inputs every run.
	w.inBytes, w.outBytes = 0, 0
	for i := 0; i < w.cycle(); i++ {
		res := w.op(0, i, nil)
		if !res.ok {
			return fmt.Errorf("warm-up call %d failed its round-trip check", i)
		}
		if res.kind == opWrite {
			ci, fi := w.combo(i)
			w.inBytes += int64(res.bytes)
			w.outBytes += int64(w.stored[ci][fi].ByteLen())
		}
	}
	return nil
}

// combo maps an op index to its codec and field: codec-major, and within a
// combination compress then decompress.
func (w *libWorkload) combo(i int) (ci, fi int) {
	j := (i % w.cycle()) / 2
	return j / len(w.fields), j % len(w.fields)
}

func (w *libWorkload) op(_, i int, rt *trace.RequestTrace) opResult {
	ci, fi := w.combo(i)
	field, comp := w.fields[fi], w.comps[ci]
	codec := trace.Str("codec", libCodecs[ci].short)
	if i%2 == 0 {
		sp := rt.Start("core.compress", codec)
		start := time.Now()
		out, err := core.Compress(comp, field)
		dur := time.Since(start)
		sp.End()
		if err != nil {
			return opResult{kind: opWrite}
		}
		w.stored[ci][fi] = out
		return opResult{kind: opWrite, dur: dur, bytes: int(field.ByteLen()), ok: true}
	}
	sp := rt.Start("core.decompress", codec)
	start := time.Now()
	out, err := core.Decompress(comp, w.stored[ci][fi], field.DType(), field.Dims()...)
	dur := time.Since(start)
	sp.End()
	ok := err == nil && withinAbs(field.Float32s(), out.Float32s(), absBound)
	return opResult{kind: opRead, dur: dur, bytes: int(field.ByteLen()), ok: ok}
}

func (w *libWorkload) teardown() (int, int, error) { return 0, 0, nil }
