package analysis

import (
	"maps"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/sz/plugin.go", Line: 12, Col: 3, Analyzer: "errcheck", Message: "boom"}
	want := "internal/sz/plugin.go:12:3 [errcheck] boom"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAnalyzersStable(t *testing.T) {
	want := []string{
		"registration", "threadsafe", "errcheck", "forbidden",
		"panicfree", "lockcheck", "bufalias", "errflow",
		"goroutineleak", "ctxflow", "blockinglock", "hotalloc",
		"untrustedalloc", "untrustedloop", "untrustedindex",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}

// TestExpandSkipsTestdata checks that wildcard expansion prunes testdata (so
// module-wide CLI runs never load the deliberately broken fixtures) while the
// fixtures stay addressable when the pattern points inside testdata.
func TestExpandSkipsTestdata(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand(root, []string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if strings.Contains(filepath.ToSlash(dir), "/testdata/") {
			t.Errorf("wildcard expansion included fixture directory %s", dir)
		}
	}

	abs, err := filepath.Abs(filepath.Join("testdata", "src", "errcheck_bad"))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := loader.Expand(root, []string{abs})
	if err != nil {
		t.Fatalf("explicit fixture pattern: %v", err)
	}
	if len(explicit) != 1 {
		t.Errorf("explicit fixture pattern matched %d dirs, want 1", len(explicit))
	}
}

// TestGatherFacts loads a fixture and checks the module-wide facts pass picks
// up its registration site.
func TestGatherFacts(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("internal", "analysis", "testdata", "src", "panicfree_bad"))
	if err != nil {
		t.Fatal(err)
	}
	facts := gatherFacts([]*Package{pkg})
	if len(facts.Sites) != 1 {
		t.Fatalf("got %d registration sites, want 1", len(facts.Sites))
	}
	if site := facts.Sites[0]; site.Kind != kindCompressor || site.Name != "throwing" ||
		site.Func != "init" || site.FactoryType != "throwing" {
		t.Errorf("site = %+v, want compressor \"throwing\" registered from init with factory type throwing", site)
	}
}

// TestLoadDirModuleRootRelative checks LoadDir resolves relative paths
// against the module root and that fixtures typecheck without soft errors.
func TestLoadDirModuleRootRelative(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("internal/analysis/testdata/src/errcheck_bad")
	if err != nil {
		t.Fatal(err)
	}
	if want := loader.ModulePath + "/internal/analysis/testdata/src/errcheck_bad"; pkg.Path != want {
		t.Errorf("pkg.Path = %q, want %q", pkg.Path, want)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Errorf("fixture should typecheck cleanly, got %v", pkg.TypeErrors)
	}
}

// TestWaiverBudget pins the standing //lint:ignore directives in the module's
// product code (non-test, non-testdata), per analyzer. A waiver is an
// analyzer conceding a false positive, so adding one is a reviewed edit to
// this table rather than silent creep — and removing one ratchets it down.
func TestWaiverBudget(t *testing.T) {
	want := map[string]int{
		"blockinglock":  2, // obslog's serialized sink write, the router's one-time boot log
		"hotalloc":      3,
		"ctxflow":       2,
		"goroutineleak": 2,
	}
	got := map[string]int{}
	for _, pkg := range loadedModule(t) {
		sups, _ := collectSuppressions(pkg, "")
		for _, s := range sups {
			got[s.analyzer]++
			if strings.Contains(filepath.ToSlash(s.file), "/internal/store/") {
				t.Errorf("%s:%d: internal/store carries no waivers; fix the finding or the analyzer", s.file, s.line)
			}
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("standing waivers per analyzer = %v, want %v", got, want)
	}
}
