package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// The registries map plugin names to factories. Plugin packages register
// themselves from init(), and third-party packages can do the same without
// modifying this package: the extension mechanism of the paper's Table I.
var (
	compressorReg = registry[CompressorPlugin]{kind: "compressor"}
	metricReg     = registry[Metric]{kind: "metric"}
	ioReg         = registry[IOPlugin]{kind: "io"}
)

// registry is the name → factory table of one plugin kind. It enforces the
// registration contract itself: a name is registered once, under the Prefix()
// of the instances its factory builds, and only until the registry is first
// read (the first New* or Supported* call), which is what registering from
// init guarantees. A read seals it, so a sealed registry never changes and is
// read without a lock.
type registry[P interface{ Prefix() string }] struct {
	kind      string
	mu        sync.Mutex // serializes register and seal
	sealed    atomic.Bool
	factories map[string]func() P
}

// register adds factory under name, panicking on a late, duplicate or
// misnamed registration.
func (r *registry[P]) register(name string, factory func() P) {
	prefix := factory().Prefix()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.sealed.Load():
		panic(fmt.Sprintf("core: %s plugin %q registered after the registry was first read; register plugins from init", r.kind, name))
	case r.factories[name] != nil:
		panic(fmt.Sprintf("core: duplicate %s plugin %q", r.kind, name))
	case prefix != name:
		panic(fmt.Sprintf("core: %s plugin %q reports Prefix() %q; register it under its prefix", r.kind, name, prefix))
	}
	if r.factories == nil {
		r.factories = map[string]func() P{}
	}
	r.factories[name] = factory
}

// seal closes the registry to registration and returns its table, which no
// longer changes.
func (r *registry[P]) seal() map[string]func() P {
	if !r.sealed.Load() {
		r.mu.Lock()
		r.sealed.Store(true)
		r.mu.Unlock()
	}
	return r.factories
}

// new builds a fresh instance of the named plugin.
func (r *registry[P]) new(name string) (p P, err error) {
	factory, ok := r.seal()[name]
	if !ok {
		return p, fmt.Errorf("%w: %s %q", ErrUnknownPlugin, r.kind, name)
	}
	return factory(), nil
}

// names lists the registered names, sorted.
func (r *registry[P]) names() []string { return slices.Sorted(maps.Keys(r.seal())) }

// RegisterCompressor adds a compressor factory under name. It panics, so the
// fault surfaces at startup, on a duplicate name, a factory whose instances
// report another Prefix(), or a registration after the registry's first read.
func RegisterCompressor(name string, f func() CompressorPlugin) { compressorReg.register(name, f) }

// RegisterMetric adds a metrics factory under name, as RegisterCompressor.
func RegisterMetric(name string, factory func() Metric) { metricReg.register(name, factory) }

// RegisterIO adds an IO factory under name, as RegisterCompressor.
func RegisterIO(name string, factory func() IOPlugin) { ioReg.register(name, factory) }

// NewCompressor instantiates the named compressor wrapped in the framework
// handle. Each call returns a fresh instance, though plugins backed by
// process-global state (e.g. "sz") may still share that state and say so
// via the "pressio:shared_instance" configuration entry.
func NewCompressor(name string) (*Compressor, error) {
	impl, err := compressorReg.new(name)
	if err != nil {
		return nil, err
	}
	return &Compressor{impl: impl}, nil
}

// NewMetric instantiates the named metrics plugin.
func NewMetric(name string) (Metric, error) { return metricReg.new(name) }

// NewMetrics instantiates several metrics plugins composed into one, like
// pressio_new_metrics in the C API.
func NewMetrics(names ...string) (Metric, error) {
	members := make([]Metric, 0, len(names))
	for _, n := range names {
		m, err := NewMetric(n)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	if len(members) == 1 {
		return members[0], nil
	}
	return NewMetricsGroup(members...), nil
}

// NewIO instantiates the named IO plugin.
func NewIO(name string) (IOPlugin, error) { return ioReg.new(name) }

// SupportedCompressors enumerates registered compressor names, sorted.
func SupportedCompressors() []string { return compressorReg.names() }

// SupportedMetrics enumerates registered metrics names, sorted.
func SupportedMetrics() []string { return metricReg.names() }

// SupportedIO enumerates registered IO plugin names, sorted.
func SupportedIO() []string { return ioReg.names() }
