package core

import (
	"fmt"
	"time"

	"pressio/internal/trace"
)

// ThreadSafety describes the concurrency contract of a plugin instance,
// mirroring pressio_thread_safety. It is reported through Configuration()
// under the key "pressio:thread_safe" so parallel runtimes (e.g. the
// chunking meta-compressor) can decide whether they must clone or serialize.
type ThreadSafety int

const (
	// ThreadSafetySingle means only one thread may use the whole plugin
	// family at a time (e.g. a compressor backed by process-global state).
	ThreadSafetySingle ThreadSafety = iota
	// ThreadSafetySerialized means concurrent instances are fine but a
	// single instance must be externally serialized.
	ThreadSafetySerialized
	// ThreadSafetyMultiple means a single instance is safe for concurrent
	// use.
	ThreadSafetyMultiple
)

// String returns the lowercase name used in configuration options.
func (t ThreadSafety) String() string {
	switch t {
	case ThreadSafetySingle:
		return "single"
	case ThreadSafetySerialized:
		return "serialized"
	case ThreadSafetyMultiple:
		return "multiple"
	default:
		return fmt.Sprintf("threadsafety(%d)", int(t))
	}
}

// Well-known configuration and option keys shared by all plugins. Plugins
// translate the generic "pressio:" keys to their native options so clients
// can switch compressors by changing a single string (the paper's "common
// options" mechanism).
const (
	// KeyThreadSafe ("pressio:thread_safe") reports a ThreadSafety string.
	KeyThreadSafe = "pressio:thread_safe"
	// KeyStability ("pressio:stability") reports "stable" or "experimental".
	KeyStability = "pressio:stability"
	// KeyVersion ("pressio:version") reports the plugin version string.
	KeyVersion = "pressio:version"
	// KeyShared ("pressio:shared_instance") reports 1 when the instance
	// shares mutable state with other instances (e.g. SZ's global config).
	KeyShared = "pressio:shared_instance"
	// KeyAbs ("pressio:abs") sets a pointwise absolute error bound.
	KeyAbs = "pressio:abs"
	// KeyRel ("pressio:rel") sets a value-range relative error bound: the
	// absolute bound is rel * (max - min) of the input.
	KeyRel = "pressio:rel"
	// KeyLossless ("pressio:lossless") selects a lossless effort level.
	KeyLossless = "pressio:lossless"
	// KeyNThreads ("pressio:nthreads") requests a degree of parallelism.
	KeyNThreads = "pressio:nthreads"
)

// CompressorPlugin is the interface compressor implementations register with
// the framework. Third parties add compressors by implementing this
// interface and calling RegisterCompressor — no framework changes needed
// (Table I's "third party extensions" feature).
//
// CompressImpl must fill out (an allocated Data, typically byte-typed) from
// in; DecompressImpl must fill out using out's dtype/dims as the shape hint.
// Implementations must treat in as const: the framework's contract is that
// inputs are never clobbered (§IV-B).
type CompressorPlugin interface {
	// Prefix returns the plugin name, which namespaces its options
	// (e.g. "sz" owns "sz:abs_err_bound").
	Prefix() string
	// Version returns the plugin's version string.
	Version() string
	// Options returns the current option values, including typed
	// placeholders for unset options, enabling introspection.
	Options() *Options
	// SetOptions applies the provided options; unknown keys are ignored so
	// one Options value can configure a whole composition of plugins.
	SetOptions(*Options) error
	// Configuration returns read-only facts: thread safety, stability,
	// enumerations of supported modes, etc.
	Configuration() *Options
	// CheckOptions validates options without applying them. It gives the
	// same verdict SetOptions would, and a failed SetOptions changes nothing.
	CheckOptions(*Options) error
	// Schema describes every option: key, type, doc and bounds. Plugins
	// declare a static core.Schema table and derive Options, SetOptions,
	// CheckOptions and this method from it.
	Schema() []OptionSpec
	// CompressImpl compresses in into out.
	CompressImpl(in, out *Data) error
	// DecompressImpl decompresses in into out (out carries the shape hint).
	DecompressImpl(in, out *Data) error
	// Clone returns an independent instance with the same configuration.
	// Instances backed by shared global state return a handle to the same
	// state and advertise it via KeyShared.
	Clone() CompressorPlugin
}

// Compressor is the user-facing handle (pressio_compressor). It wraps a
// plugin with the metrics hook points and error annotation. All client code
// — CLIs, IO filters, analysis tools — talks to this type only, which is
// what makes those clients compressor-agnostic.
type Compressor struct {
	impl    CompressorPlugin
	metrics Metric // optional; composite for multiple
}

// Prefix returns the plugin name.
func (c *Compressor) Prefix() string { return c.impl.Prefix() }

// Version returns the plugin version.
func (c *Compressor) Version() string { return c.impl.Version() }

// Plugin exposes the underlying implementation (for tests and native
// baselines; generic clients should not need it).
func (c *Compressor) Plugin() CompressorPlugin { return c.impl }

// Options returns the plugin's current options.
func (c *Compressor) Options() *Options { return c.impl.Options() }

// SetOptions applies options to the plugin.
func (c *Compressor) SetOptions(o *Options) error {
	return wrapPlugin(c.impl.Prefix(), c.impl.SetOptions(o))
}

// CheckOptions validates options without applying them.
func (c *Compressor) CheckOptions(o *Options) error {
	return wrapPlugin(c.impl.Prefix(), c.impl.CheckOptions(o))
}

// Schema describes the plugin's options.
func (c *Compressor) Schema() []OptionSpec { return c.impl.Schema() }

// Configuration returns the plugin's read-only configuration.
func (c *Compressor) Configuration() *Options { return c.impl.Configuration() }

// ThreadSafety reports the plugin's declared thread safety level, defaulting
// to single when unspecified.
func (c *Compressor) ThreadSafety() ThreadSafety {
	cfg := c.impl.Configuration()
	s, err := cfg.GetString(KeyThreadSafe)
	if err != nil {
		// Unspecified is a legitimate configuration; conservatively single.
		return ThreadSafetySingle
	}
	switch s {
	case "multiple":
		return ThreadSafetyMultiple
	case "serialized":
		return ThreadSafetySerialized
	case "single":
		return ThreadSafetySingle
	default:
		// A malformed declaration also coerces to single, but is a plugin
		// bug worth surfacing: count it instead of swallowing it.
		trace.CounterAdd(trace.CtrThreadSafetyMalformed, 1)
		return ThreadSafetySingle
	}
}

// SetMetrics attaches a metrics plugin whose hooks run around every
// compress and decompress call. Pass nil to detach.
func (c *Compressor) SetMetrics(m Metric) { c.metrics = m }

// MetricsResults gathers the attached metrics plugin's results; it returns
// an empty Options when no metrics are attached.
func (c *Compressor) MetricsResults() *Options {
	if c.metrics == nil {
		return NewOptions()
	}
	return c.metrics.Results()
}

// Compress compresses in into out. in must hold data; out must be non-nil
// (it may be an empty hint created with NewEmpty). Metrics hooks fire around
// the plugin invocation; this wrapper is the entirety of the abstraction
// overhead measured in the paper's §VI.
func (c *Compressor) Compress(in, out *Data) error {
	if in == nil || !in.HasData() {
		return wrapPlugin(c.impl.Prefix(), fmt.Errorf("%w: compress input", ErrNilData))
	}
	if out == nil {
		return wrapPlugin(c.impl.Prefix(), fmt.Errorf("%w: compress output", ErrNilData))
	}
	if trace.Enabled() {
		return c.compressTraced(in, out)
	}
	if c.metrics != nil {
		c.metrics.BeginCompress(in)
	}
	err := c.impl.CompressImpl(in, out)
	if c.metrics != nil {
		c.metrics.EndCompress(in, out, err)
	}
	return wrapPlugin(c.impl.Prefix(), err)
}

// compressTraced is the Compress path when tracing is enabled: the wrapper
// span covers everything the abstraction adds (validation, metrics hooks,
// error annotation) while the nested impl span covers only the plugin, so
// wrapper minus impl is the per-call abstraction overhead the paper's §VI
// quantifies.
func (c *Compressor) compressTraced(in, out *Data) error {
	prefix := c.impl.Prefix()
	wrapper := trace.Start("pressio.compress",
		trace.Str("plugin", prefix), trace.Uint("bytes_in", in.ByteLen()))
	trace.CounterAdd(trace.CtrCompressCalls, 1)
	trace.CounterAdd(trace.CtrCompressBytesIn, int64(in.ByteLen()))
	if c.metrics != nil {
		c.metrics.BeginCompress(in)
	}
	impl := trace.Start(prefix + ".compress_impl")
	begin := time.Now()
	err := c.impl.CompressImpl(in, out)
	trace.ObserveDuration(trace.HistCompress, time.Since(begin))
	impl.End()
	if c.metrics != nil {
		c.metrics.EndCompress(in, out, err)
	}
	if err != nil {
		trace.CounterAdd(trace.PluginErrorKey(prefix), 1)
	} else {
		trace.CounterAdd(trace.CtrCompressBytesOut, int64(out.ByteLen()))
	}
	wrapper.End()
	return wrapPlugin(prefix, err)
}

// Decompress decompresses in into out; out's dtype and dims serve as the
// shape hint exactly as in the C API.
func (c *Compressor) Decompress(in, out *Data) error {
	if in == nil || !in.HasData() {
		return wrapPlugin(c.impl.Prefix(), fmt.Errorf("%w: decompress input", ErrNilData))
	}
	if out == nil {
		return wrapPlugin(c.impl.Prefix(), fmt.Errorf("%w: decompress output", ErrNilData))
	}
	if trace.Enabled() {
		return c.decompressTraced(in, out)
	}
	if c.metrics != nil {
		c.metrics.BeginDecompress(in)
	}
	err := c.impl.DecompressImpl(in, out)
	if c.metrics != nil {
		c.metrics.EndDecompress(in, out, err)
	}
	return wrapPlugin(c.impl.Prefix(), err)
}

// decompressTraced mirrors compressTraced for the decompression direction.
func (c *Compressor) decompressTraced(in, out *Data) error {
	prefix := c.impl.Prefix()
	wrapper := trace.Start("pressio.decompress",
		trace.Str("plugin", prefix), trace.Uint("bytes_in", in.ByteLen()))
	trace.CounterAdd(trace.CtrDecompressCalls, 1)
	trace.CounterAdd(trace.CtrDecompressBytesIn, int64(in.ByteLen()))
	if c.metrics != nil {
		c.metrics.BeginDecompress(in)
	}
	impl := trace.Start(prefix + ".decompress_impl")
	begin := time.Now()
	err := c.impl.DecompressImpl(in, out)
	trace.ObserveDuration(trace.HistDecompress, time.Since(begin))
	impl.End()
	if c.metrics != nil {
		c.metrics.EndDecompress(in, out, err)
	}
	if err != nil {
		trace.CounterAdd(trace.PluginErrorKey(prefix), 1)
	} else {
		trace.CounterAdd(trace.CtrDecompressBytesOut, int64(out.ByteLen()))
	}
	wrapper.End()
	return wrapPlugin(prefix, err)
}

// Clone returns an independent handle. The metrics plugin is cloned too so
// concurrent users do not share mutable metric state.
func (c *Compressor) Clone() *Compressor {
	clone := &Compressor{impl: c.impl.Clone()}
	if c.metrics != nil {
		clone.metrics = c.metrics.Clone()
	}
	return clone
}
