package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Stub plugins: each embeds its interface, whose other methods the registry
// never calls, and reports the prefix it was built with.
type (
	stubCompressor struct {
		CompressorPlugin
		prefix string
	}
	stubMetric struct {
		Metric
		prefix string
	}
	stubIO struct {
		IOPlugin
		prefix string
	}
)

func (s stubCompressor) Prefix() string { return s.prefix }
func (s stubMetric) Prefix() string     { return s.prefix }
func (s stubIO) Prefix() string         { return s.prefix }

// mustPanic runs f and fails unless it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// checkRegistry drives a fresh registry of one kind through the contract:
// a clean registration, then each refusal.
func checkRegistry[P interface{ Prefix() string }](t *testing.T, kind string, stub func(prefix string) P) {
	factory := func(prefix string) func() P { return func() P { return stub(prefix) } }
	t.Run(kind, func(t *testing.T) {
		r := &registry[P]{kind: kind}
		r.register("a", factory("a"))
		mustPanic(t, fmt.Sprintf("duplicate %s plugin %q", kind, "a"), func() { r.register("a", factory("a")) })
		mustPanic(t, fmt.Sprintf("%s plugin %q reports Prefix() %q", kind, "b", "c"), func() { r.register("b", factory("c")) })
		if p, err := r.new("a"); err != nil || p.Prefix() != "a" {
			t.Fatalf("new(a) = %v, %v", p, err)
		}
		if _, err := r.new("b"); !errors.Is(err, ErrUnknownPlugin) {
			t.Errorf("new(b) after a refused registration: %v, want ErrUnknownPlugin", err)
		}
		late := fmt.Sprintf("%s plugin %q registered after the registry was first read", kind, "d")
		mustPanic(t, late, func() { r.register("d", factory("d")) })

		listed := &registry[P]{kind: kind}
		listed.register("a", factory("a"))
		if got := listed.names(); len(got) != 1 || got[0] != "a" {
			t.Errorf("names() = %v, want [a]", got)
		}
		mustPanic(t, late, func() { listed.register("d", factory("d")) })
	})
}

func TestRegistryContract(t *testing.T) {
	checkRegistry(t, "compressor", func(p string) CompressorPlugin { return stubCompressor{prefix: p} })
	checkRegistry(t, "metric", func(p string) Metric { return stubMetric{prefix: p} })
	checkRegistry(t, "io", func(p string) IOPlugin { return stubIO{prefix: p} })
}

// TestProcessRegistriesRefuseLateRegistration reads each process-wide
// registry, as any client does, and checks the exported entry points then
// refuse a registration. A refused registration leaves the registry as it was.
func TestProcessRegistriesRefuseLateRegistration(t *testing.T) {
	SupportedCompressors()
	SupportedMetrics()
	SupportedIO()
	mustPanic(t, `compressor plugin "late" registered after`, func() {
		RegisterCompressor("late", func() CompressorPlugin { return stubCompressor{prefix: "late"} })
	})
	mustPanic(t, `metric plugin "late" registered after`, func() {
		RegisterMetric("late", func() Metric { return stubMetric{prefix: "late"} })
	})
	mustPanic(t, `io plugin "late" registered after`, func() {
		RegisterIO("late", func() IOPlugin { return stubIO{prefix: "late"} })
	})
	if _, err := NewCompressor("late"); !errors.Is(err, ErrUnknownPlugin) {
		t.Errorf("NewCompressor(late) = %v, want ErrUnknownPlugin", err)
	}
}
