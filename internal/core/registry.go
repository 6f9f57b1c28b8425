package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// The registries map plugin names to factories. Plugin packages register
// themselves from init(), and third-party packages can do the same without
// modifying this package — the extension mechanism the paper's Table I
// credits LibPressio with.

var (
	regMu         sync.RWMutex
	compressorReg = map[string]func() CompressorPlugin{}
	metricReg     = map[string]func() Metric{}
	ioReg         = map[string]func() IOPlugin{}
)

// RegisterCompressor adds a compressor factory under name. Registering a
// duplicate name panics, surfacing plugin conflicts at startup.
func RegisterCompressor(name string, factory func() CompressorPlugin) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := compressorReg[name]; dup {
		panic(fmt.Sprintf("core: duplicate compressor plugin %q", name))
	}
	compressorReg[name] = factory
}

// RegisterMetric adds a metrics factory under name.
func RegisterMetric(name string, factory func() Metric) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := metricReg[name]; dup {
		panic(fmt.Sprintf("core: duplicate metric plugin %q", name))
	}
	metricReg[name] = factory
}

// RegisterIO adds an IO factory under name.
func RegisterIO(name string, factory func() IOPlugin) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := ioReg[name]; dup {
		panic(fmt.Sprintf("core: duplicate io plugin %q", name))
	}
	ioReg[name] = factory
}

// NewCompressor instantiates the named compressor wrapped in the framework
// handle. Each call returns a fresh instance, though plugins backed by
// process-global state (e.g. "sz") may still share that state and say so
// via the "pressio:shared_instance" configuration entry.
func NewCompressor(name string) (*Compressor, error) {
	regMu.RLock()
	factory, ok := compressorReg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: compressor %q", ErrUnknownPlugin, name)
	}
	return &Compressor{impl: factory()}, nil
}

// NewMetric instantiates the named metrics plugin.
func NewMetric(name string) (Metric, error) {
	regMu.RLock()
	factory, ok := metricReg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: metric %q", ErrUnknownPlugin, name)
	}
	return factory(), nil
}

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
func NewIO(name string) (IOPlugin, error) {
	regMu.RLock()
	factory, ok := ioReg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: io %q", ErrUnknownPlugin, name)
	}
	return factory(), nil
}

// SupportedCompressors enumerates registered compressor names, sorted.
func SupportedCompressors() []string { return sortedKeys(compressorReg) }

// SupportedMetrics enumerates registered metrics names, sorted.
func SupportedMetrics() []string { return sortedKeys(metricReg) }

// SupportedIO enumerates registered IO plugin names, sorted.
func SupportedIO() []string { return sortedKeys(ioReg) }

func sortedKeys[V any](m map[string]V) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Sorted(maps.Keys(m))
}
