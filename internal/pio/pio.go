// Package pio implements the pressio_io plugin family: configurable
// sources and sinks of Data buffers. It covers flat binary files ("posix"),
// character-delimited values ("csv"), the NumPy .npy format ("npy"),
// synthetic sequential data ("iota"), sub-region selection ("select"), an
// in-memory buffer ("noop"), and the h5lite chunked container ("h5lite").
package pio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the iota and select IO plugins own.
const (
	keyIotaDims    = "iota:dims"
	keyIotaDType   = "iota:dtype"
	keyIotaStart   = "iota:start"
	keySelectIO    = "select:io"
	keySelectStart = "select:start"
	keySelectEnd   = "select:end"
)

// ErrFormat reports an unreadable file format.
var ErrFormat = errors.New("pio: bad format")

// classify maps an OS-level IO error into the shared core taxonomy: busy,
// interrupted, and deadline conditions are marked transient (a retrying
// caller such as the guard meta-compressor may succeed on the next attempt),
// while missing files, permission problems, and format errors stay permanent.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EBUSY) || errors.Is(err, os.ErrDeadlineExceeded) {
		return core.Transient(err)
	}
	return err
}

// ioSpan opens a span for one IO operation ("pio.read"/"pio.write") tagged
// with the plugin and path; nil (free) when tracing is disabled.
func ioSpan(op, plugin, path string) *trace.Span {
	if !trace.Enabled() {
		return nil
	}
	return trace.Start("pio."+op, trace.Str("io", plugin), trace.Str("path", path))
}

func init() {
	core.RegisterIO("posix", func() core.IOPlugin { return &posix{} })
	core.RegisterIO("csv", func() core.IOPlugin { return &csvIO{} })
	core.RegisterIO("npy", func() core.IOPlugin { return &npy{} })
	core.RegisterIO("iota", func() core.IOPlugin { return &iota{dtype: core.DTypeFloat32} })
	core.RegisterIO("noop", func() core.IOPlugin { return &noop{} })
	core.RegisterIO("select", func() core.IOPlugin {
		return &selectIO{child: core.Child[core.IOPlugin]{Name: "posix"}}
	})
}

// pathConfig is embedded by the file-backed plugins: it declares the common
// io:path option and, with it, their whole option surface.
type pathConfig struct {
	path string
}

const pathDoc = "file to read from or write to"

var pathSchema = core.NewSchema(
	core.Field(core.KeyIOPath, pathDoc, core.Bounds{}, func(p *pathConfig) *string { return &p.path }),
)

func (p *pathConfig) Options() *core.Options             { return pathSchema.Options(p) }
func (p *pathConfig) SetOptions(o *core.Options) error   { return pathSchema.Set(p, o) }
func (p *pathConfig) CheckOptions(o *core.Options) error { return pathSchema.Check(p, o) }
func (p *pathConfig) Schema() []core.OptionSpec          { return pathSchema.Specs() }

// posix reads and writes flat binary files, relying on the caller's Data
// hint for dtype and dims (like the POSIX read/write plugin of the paper).
type posix struct {
	pathConfig
}

func (p *posix) Prefix() string { return "posix" }

func (p *posix) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

func (p *posix) Read(hint *core.Data) (*core.Data, error) {
	sp := ioSpan("read", "posix", p.path)
	defer sp.End()
	b, err := os.ReadFile(p.path)
	if err != nil {
		return nil, classify(err)
	}
	if hint != nil && hint.DType() != core.DTypeUnset && hint.NumDims() > 0 {
		d, err := core.NewMove(hint.DType(), b, hint.Dims()...)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	return core.NewBytes(b), nil
}

func (p *posix) Write(d *core.Data) error {
	sp := ioSpan("write", "posix", p.path)
	defer sp.End()
	return classify(atomicWriteFile(p.path, d.Bytes(), 0o644))
}

func (p *posix) Clone() core.IOPlugin {
	clone := *p
	return &clone
}

// csvIO reads and writes 2-D data as comma-separated values (one row per
// line); 1-D data is a single column.
type csvIO struct {
	pathConfig
}

func (c *csvIO) Prefix() string { return "csv" }

func (c *csvIO) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

func (c *csvIO) Read(hint *core.Data) (*core.Data, error) {
	sp := ioSpan("read", "csv", c.path)
	defer sp.End()
	f, err := os.Open(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var vals []float64
	rows, cols := 0, -1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("%w: ragged csv row %d", ErrFormat, rows+1)
		}
		for _, fld := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			vals = append(vals, v)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out *core.Data
	if cols <= 1 {
		out = core.FromFloat64s(vals, uint64(len(vals)))
	} else {
		out = core.FromFloat64s(vals, uint64(rows), uint64(cols))
	}
	if hint != nil && hint.DType() != core.DTypeUnset && hint.DType() != core.DTypeFloat64 {
		return out.CastTo(hint.DType())
	}
	return out, nil
}

func (c *csvIO) Write(d *core.Data) error {
	if !d.DType().Numeric() {
		return fmt.Errorf("%w: cannot write %s as csv", core.ErrInvalidDType, d.DType())
	}
	sp := ioSpan("write", "csv", c.path)
	defer sp.End()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	vals := d.AsFloat64s()
	cols := 1 // one value per line unless the data has rows
	if rb, err := core.RowBytes(d.DType(), d.Dims()); err == nil {
		cols = int(rb) / d.DType().Size()
	}
	for i, v := range vals {
		if i > 0 {
			if i%cols == 0 {
				if _, err := w.WriteString("\n"); err != nil {
					return err
				}
			} else {
				if _, err := w.WriteString(","); err != nil {
					return err
				}
			}
		}
		if _, err := w.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return atomicWriteFile(c.path, buf.Bytes(), 0o644)
}

func (c *csvIO) Clone() core.IOPlugin {
	clone := *c
	return &clone
}

// iota generates synthetic sequentially increasing data, the std::iota
// plugin of the paper used for tests and demos.
type iota struct {
	dims  []uint64
	dtype core.DType
	start float64
}

func (i *iota) Prefix() string { return "iota" }

var iotaSchema = core.NewSchema(
	core.Uint64s(keyIotaDims, "shape to generate when the read hint carries none",
		func(i *iota) *[]uint64 { return &i.dims }),
	core.Parsed(keyIotaDType, "element type to generate (any name core.ParseDType accepts)", core.ParseDType,
		func(i *iota) *core.DType { return &i.dtype }),
	core.Field(keyIotaStart, "value of the first element", core.Bounds{},
		func(i *iota) *float64 { return &i.start }),
)

func (i *iota) Options() *core.Options             { return iotaSchema.Options(i) }
func (i *iota) SetOptions(o *core.Options) error   { return iotaSchema.Set(i, o) }
func (i *iota) CheckOptions(o *core.Options) error { return iotaSchema.Check(i, o) }
func (i *iota) Schema() []core.OptionSpec          { return iotaSchema.Specs() }

func (i *iota) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

func (i *iota) Read(hint *core.Data) (*core.Data, error) {
	dims := i.dims
	dtype := i.dtype
	if hint != nil && hint.NumDims() > 0 {
		dims = hint.Dims()
		if hint.DType() != core.DTypeUnset {
			dtype = hint.DType()
		}
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: iota needs dims", core.ErrInvalidDims)
	}
	n := uint64(1)
	for _, d := range dims {
		n *= d
	}
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = i.start + float64(k)
	}
	d64 := core.FromFloat64s(vals, dims...)
	if dtype == core.DTypeFloat64 {
		return d64, nil
	}
	return d64.CastTo(dtype)
}

func (i *iota) Write(d *core.Data) error {
	return fmt.Errorf("%w: iota is read-only", core.ErrNotImplemented)
}

func (i *iota) Clone() core.IOPlugin {
	clone := *i
	return &clone
}

// noop stores data in memory; it backs unit tests and meta-IO composition.
type noop struct {
	core.NoOptions
	stored *core.Data
}

func (n *noop) Prefix() string { return "noop" }
func (n *noop) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", "1.0.0", false)
}

func (n *noop) Read(hint *core.Data) (*core.Data, error) {
	if n.stored == nil {
		return nil, fmt.Errorf("noop: %w", os.ErrNotExist)
	}
	return n.stored.Clone(), nil
}

func (n *noop) Write(d *core.Data) error {
	n.stored = d.Clone()
	return nil
}

func (n *noop) Clone() core.IOPlugin {
	clone := &noop{}
	if n.stored != nil {
		clone.stored = n.stored.Clone()
	}
	return clone
}

// selectIO reads through a child IO plugin and extracts a box-shaped
// sub-region, the "select" plugin of the paper.
type selectIO struct {
	child core.Child[core.IOPlugin]
	start []uint64
	end   []uint64
}

func (s *selectIO) Prefix() string { return "select" }

var selectSchema = core.NewSchema(
	core.ChildRow(keySelectIO, "name of the IO plugin that reads the full buffer; it receives every option set here",
		func(s *selectIO) *core.Child[core.IOPlugin] { return &s.child }),
	core.Uint64s(keySelectStart, "per-dimension inclusive start of the box",
		func(s *selectIO) *[]uint64 { return &s.start }).WriteOnly(),
	core.Uint64s(keySelectEnd, "per-dimension exclusive end of the box",
		func(s *selectIO) *[]uint64 { return &s.end }).WriteOnly(),
)

func (s *selectIO) Options() *core.Options             { return selectSchema.Options(s) }
func (s *selectIO) SetOptions(o *core.Options) error   { return selectSchema.Set(s, o) }
func (s *selectIO) CheckOptions(o *core.Options) error { return selectSchema.Check(s, o) }
func (s *selectIO) Schema() []core.OptionSpec          { return selectSchema.Specs() }

func (s *selectIO) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", "1.0.0", false)
}

func (s *selectIO) Read(hint *core.Data) (*core.Data, error) {
	child, err := s.child.Get()
	if err != nil {
		return nil, err
	}
	full, err := child.Read(hint)
	if err != nil {
		return nil, err
	}
	return Subregion(full, s.start, s.end)
}

func (s *selectIO) Write(d *core.Data) error {
	return fmt.Errorf("%w: select is read-only", core.ErrNotImplemented)
}

func (s *selectIO) Clone() core.IOPlugin {
	clone := *s
	clone.child = s.child.Clone()
	return &clone
}

// Subregion copies the box [start, end) out of d.
func Subregion(d *core.Data, start, end []uint64) (*core.Data, error) {
	dims := d.Dims()
	if len(start) != len(dims) || len(end) != len(dims) {
		return nil, fmt.Errorf("%w: select box rank %d vs data rank %d",
			core.ErrInvalidDims, len(start), len(dims))
	}
	outDims := make([]uint64, len(dims))
	for i := range dims {
		if start[i] >= end[i] || end[i] > dims[i] {
			return nil, fmt.Errorf("%w: box [%v,%v) outside dims %v", core.ErrInvalidDims, start, end, dims)
		}
		outDims[i] = end[i] - start[i]
	}
	elem := uint64(d.DType().Size())
	out := core.NewData(d.DType(), outDims...)
	src := d.Bytes()
	dst := out.Bytes()
	// Copy contiguous runs along the last dimension.
	idx := make([]uint64, len(dims))
	copy(idx, start)
	rowLen := outDims[len(outDims)-1] * elem
	dstOff := uint64(0)
	for {
		lin := uint64(0)
		for i := range dims {
			lin = lin*dims[i] + idx[i]
		}
		copy(dst[dstOff:dstOff+rowLen], src[lin*elem:lin*elem+rowLen])
		dstOff += rowLen
		// Advance all but the last dimension.
		d2 := len(dims) - 2
		for d2 >= 0 {
			idx[d2]++
			if idx[d2] < end[d2] {
				break
			}
			idx[d2] = start[d2]
			d2--
		}
		if d2 < 0 {
			break
		}
	}
	return out, nil
}
