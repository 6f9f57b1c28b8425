package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrorBoundMode enumerates how a lossy compressor interprets its bound.
// Plugins expose their native modes but all understand the generic
// "pressio:abs" and "pressio:rel" options.
type ErrorBoundMode int

const (
	// BoundAbs is a pointwise absolute error bound.
	BoundAbs ErrorBoundMode = iota
	// BoundValueRangeRel scales the bound by the input's value range
	// (max - min), the paper's "value range based relative error bound".
	BoundValueRangeRel
)

// String returns the mode name used in string-valued options ("abs", "rel").
func (m ErrorBoundMode) String() string {
	switch m {
	case BoundAbs:
		return "abs"
	case BoundValueRangeRel:
		return "rel"
	default:
		return fmt.Sprintf("boundmode(%d)", int(m))
	}
}

// ParseErrorBoundMode parses "abs" or "rel".
func ParseErrorBoundMode(s string) (ErrorBoundMode, error) {
	switch s {
	case "abs":
		return BoundAbs, nil
	case "rel", "vr_rel":
		return BoundValueRangeRel, nil
	default:
		return BoundAbs, fmt.Errorf("%w: error bound mode %q", ErrInvalidOption, s)
	}
}

// ValueRange returns (min, max) over the numeric elements of d. NaNs are
// skipped; an all-NaN or empty buffer returns (0, 0).
func ValueRange(d *Data) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	switch d.DType() {
	case DTypeFloat32:
		for _, v := range d.Float32s() {
			f := float64(v)
			if math.IsNaN(f) {
				continue
			}
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
	case DTypeFloat64:
		for _, v := range d.Float64s() {
			if math.IsNaN(v) {
				continue
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	default:
		for _, v := range d.AsFloat64s() {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// BoundConfig is an embeddable helper that handles the generic error-bound
// options for lossy compressor plugins: it stores the native mode/bound and
// maps "pressio:abs" / "pressio:rel" onto them, which is exactly the adapter
// work each native client would otherwise reimplement.
type BoundConfig struct {
	Mode  ErrorBoundMode
	Bound float64
}

// BoundRows is the shared row group behind BoundConfig: the generic
// "pressio:abs" / "pressio:rel" keys and the prefix-local
// "<prefix>:abs_err_bound", "<prefix>:rel_err_bound" and
// "<prefix>:error_bound_mode_str" spellings, all stored in the BoundConfig
// that field returns. A bound key selects its own mode; the mode string, applied
// last, overrides that. The bound of the inactive mode reads as unset.
func BoundRows[T any](prefix string, field func(*T) *BoundConfig) []Row[T] {
	bound := func(key, doc string, mode ErrorBoundMode) Row[T] {
		return Opt(key, doc, Above(0),
			func(p *T) (float64, bool) { b := field(p); return b.Bound, b.Mode == mode },
			func(p *T, v float64) { *field(p) = BoundConfig{Mode: mode, Bound: v} })
	}
	return []Row[T]{
		bound(KeyAbs, "pointwise absolute error bound", BoundAbs),
		bound(KeyRel, "error bound relative to the input's value range (max - min)", BoundValueRangeRel),
		bound(prefix+":abs_err_bound", "native spelling of pressio:abs", BoundAbs),
		bound(prefix+":rel_err_bound", "native spelling of pressio:rel", BoundValueRangeRel),
		Parsed(prefix+":error_bound_mode_str", "how the bound is interpreted: abs, or rel (vr_rel) for value-range relative",
			ParseErrorBoundMode, func(p *T) *ErrorBoundMode { return &field(p).Mode }),
	}
}

// StandardConfiguration builds the read-only configuration Options every
// plugin reports: thread safety, stability and version.
func StandardConfiguration(safety ThreadSafety, stability, version string, shared bool) *Options {
	cfg := NewOptions()
	cfg.SetValue(KeyThreadSafe, safety.String())
	cfg.SetValue(KeyStability, stability)
	cfg.SetValue(KeyVersion, version)
	if shared {
		cfg.SetValue(KeyShared, int32(1))
	} else {
		cfg.SetValue(KeyShared, int32(0))
	}
	return cfg
}

// ParseShape builds an empty Data hint from a comma-separated dims string
// and a dtype name — the parsing every CLI front end needs.
func ParseShape(dimsCSV, dtypeName string) (*Data, error) {
	dtype, err := ParseDType(dtypeName)
	if err != nil {
		return nil, err
	}
	dims, err := ParseDims(dimsCSV)
	if err == nil && len(dims) == 0 {
		err = fmt.Errorf("%w: no dims in %q", ErrInvalidDims, dimsCSV)
	}
	if err != nil {
		return nil, err
	}
	return NewEmpty(dtype, dims...), nil
}

// ParseDims parses comma-separated extents, skipping empty parts.
func ParseDims(csv string) ([]uint64, error) {
	parts := strings.Split(csv, ",")
	dims := make([]uint64, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad dims %q", ErrInvalidDims, csv)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// FillDecompressed installs raw decompressed bytes into out: a declared out
// reinterprets them as its dtype and dims, an undeclared one receives them as
// bytes. Decompressor plugins share this tail logic.
func FillDecompressed(out *Data, raw []byte) error { return Adopt(out, NewBytes(raw)) }

// Adopt makes the decoded got the caller's out. An out that declares a dtype
// and a nonzero element count must match got in byte length and, unless got
// is untyped bytes, in dtype, or the stream is corrupt for this caller;
// untyped bytes then take the declared dtype and dims. An undeclared out
// takes got as it is.
func Adopt(out, got *Data) error {
	n := elementCount(out.Dims())
	if out.DType() == DTypeUnset || n == 0 {
		out.Become(got)
		return nil
	}
	if want := n * uint64(out.DType().Size()); want != got.ByteLen() || (got.DType() != DTypeByte && got.DType() != out.DType()) {
		return fmt.Errorf("%w: stream holds %s%v, output declares %s%v", ErrCorrupt, got.DType(), got.Dims(), out.DType(), out.Dims())
	}
	if got.DType() == DTypeByte {
		var err error
		if got, err = NewMove(out.DType(), got.Bytes(), out.Dims()...); err != nil {
			return err
		}
	}
	out.Become(got)
	return nil
}

// Compress is a convenience helper: it allocates the output, compresses in,
// and returns the compressed bytes Data.
func Compress(c *Compressor, in *Data) (*Data, error) {
	out := NewEmpty(DTypeByte, 0)
	if err := c.Compress(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Decompress is a convenience helper: it allocates an output with the given
// shape hint, decompresses, and returns it.
func Decompress(c *Compressor, compressed *Data, dtype DType, dims ...uint64) (*Data, error) {
	out := NewEmpty(dtype, dims...)
	if err := c.Decompress(compressed, out); err != nil {
		return nil, err
	}
	return out, nil
}
