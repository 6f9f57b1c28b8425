package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pressio/internal/core"

	// Register the full plugin library.
	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/opt"
	_ "pressio/internal/pio"
	_ "pressio/internal/resilience"
	_ "pressio/internal/service"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The registry as the plugin packages' init functions left it, before any
// test in this binary registers a double of its own.
var (
	compressorNames = core.SupportedCompressors()
	metricNames     = core.SupportedMetrics()
	ioNames         = core.SupportedIO()
)

// eachPlugin calls fn with the bound option table of a fresh default instance
// of every registered compressor, metric and IO plugin, labelled
// "<kind>/<name>", in a stable order.
func eachPlugin(t *testing.T, fn func(label string, fresh func() core.Opts)) {
	t.Helper()
	for _, name := range compressorNames {
		fn("compressor/"+name, func() core.Opts {
			c, err := core.NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			return c.Opts()
		})
	}
	for _, name := range metricNames {
		fn("metric/"+name, func() core.Opts {
			m, err := core.NewMetric(name)
			if err != nil {
				t.Fatal(err)
			}
			return m.Opts()
		})
	}
	for _, name := range ioNames {
		fn("io/"+name, func() core.Opts {
			io, err := core.NewIO(name)
			if err != nil {
				t.Fatal(err)
			}
			return io.Opts()
		})
	}
}

// TestOptionSurfaceGolden pins "plugin key type default" for every registered
// plugin. The golden was recorded from the hand-written Options() bodies the
// schema replaced, so a byte-for-byte match proves no key, type or default
// moved.
func TestOptionSurfaceGolden(t *testing.T) {
	var b strings.Builder
	eachPlugin(t, func(label string, fresh func() core.Opts) {
		opts := fresh().Options()
		if opts.Len() == 0 {
			fmt.Fprintf(&b, "%s\t(no options)\n", label)
		}
		for _, k := range opts.Keys() {
			o, _ := opts.Get(k)
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", label, k, o.Type(), o)
		}
	})
	const path = "testdata/option_surface.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("option surface drifted from %s (re-record with -update only for an intended change):\n%s",
			path, lineDiff(string(want), b.String()))
	}
}

// TestCompressorVersion: a compressor states its version once, as
// pressio:version in its configuration, which is where Version reads it.
func TestCompressorVersion(t *testing.T) {
	for _, name := range compressorNames {
		c, err := core.NewCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := c.Configuration().GetString(core.KeyVersion); v == "" || c.Version() != v {
			t.Errorf("%s: Version() = %q, configuration %s = %q", name, c.Version(), core.KeyVersion, v)
		}
	}
}

// optionReference renders every registered plugin's schema as the generated
// section of docs/PLUGINS.md: one table per plugin, defaults read from a
// fresh instance.
func optionReference(t *testing.T) string {
	var b strings.Builder
	cell := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	eachPlugin(t, func(label string, fresh func() core.Opts) {
		p := fresh()
		fmt.Fprintf(&b, "### %s\n\n", label)
		if len(p.Specs()) == 0 {
			b.WriteString("No options.\n\n")
			return
		}
		b.WriteString("| key | type | default | bounds | description |\n|---|---|---|---|---|\n")
		defaults := p.Options()
		for _, spec := range p.Specs() {
			def := "unset"
			if o, ok := defaults.Get(spec.Key); ok && o.HasValue() {
				def = "`" + o.String() + "`"
			}
			doc := spec.Doc
			if spec.ReadOnly {
				doc += " (read-only)"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", spec.Key, spec.Type, def, cell(spec.Bounds.String()), cell(doc))
		}
		b.WriteString("\n")
	})
	return b.String()
}

// TestPluginDocsGenerated keeps the option reference in docs/PLUGINS.md equal
// to what the registry declares; -update rewrites the section in place.
func TestPluginDocsGenerated(t *testing.T) {
	const path = "../../docs/PLUGINS.md"
	const begin, end = "<!-- BEGIN GENERATED OPTION REFERENCE -->\n", "<!-- END GENERATED OPTION REFERENCE -->\n"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the generated-section markers", path)
	}
	want := optionReference(t)
	if got := doc[i+len(begin) : j]; got == want {
		return
	} else if !*update {
		t.Fatalf("%s option reference drifted from the registry; regenerate with\n\tgo test ./internal/core -run TestPluginDocsGenerated -update\n%s",
			path, lineDiff(got, want))
	}
	if err := os.WriteFile(path, []byte(doc[:i+len(begin)]+want+doc[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	wm, gm := in(w), in(g)
	var b strings.Builder
	for _, l := range w {
		if !gm[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !wm[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
