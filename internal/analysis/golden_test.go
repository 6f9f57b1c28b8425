package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// goldenCases pairs each fixture package under testdata/src with the single
// analyzer it exercises. Each analyzer has one positive case and one
// suppressed case; malformed //lint:ignore directives surface through the
// "lint" pseudo-analyzer regardless of the analyzer under test.
var goldenCases = []struct {
	name     string
	analyzer string
}{
	{"registration_bad", "registration"},
	{"registration_suppressed", "registration"},
	{"threadsafe_bad", "threadsafe"},
	{"threadsafe_suppressed", "threadsafe"},
	{"errcheck_bad", "errcheck"},
	{"errcheck_suppressed", "errcheck"},
	{"forbidden_bad", "forbidden"},
	{"forbidden_suppressed", "forbidden"},
	{"panicfree_bad", "panicfree"},
	{"panicfree_suppressed", "panicfree"},
	{"lockcheck_bad", "lockcheck"},
	{"lockcheck_suppressed", "lockcheck"},
	{"bufalias_bad", "bufalias"},
	{"bufalias_suppressed", "bufalias"},
	{"errflow_bad", "errflow"},
	{"errflow_suppressed", "errflow"},
	{"goroutineleak_bad", "goroutineleak"},
	{"goroutineleak_suppressed", "goroutineleak"},
	{"ctxflow_bad", "ctxflow"},
	{"ctxflow_suppressed", "ctxflow"},
	{"blockinglock_bad", "blockinglock"},
	{"blockinglock_suppressed", "blockinglock"},
	{"hotalloc_bad", "hotalloc"},
	{"hotalloc_suppressed", "hotalloc"},
	{"untrustedalloc_bad", "untrustedalloc"},
	{"untrustedalloc_suppressed", "untrustedalloc"},
	{"untrustedloop_bad", "untrustedloop"},
	{"untrustedloop_suppressed", "untrustedloop"},
	{"untrustedindex_bad", "untrustedindex"},
	{"untrustedindex_suppressed", "untrustedindex"},
	// The three PR-4 fuzz fixes, reverted: each regression fixture is the
	// pre-fix decoder shape and must stay flagged by its analyzer.
	{"regress_fpzip_bad", "untrustedalloc"},
	{"regress_zfp_bad", "untrustedloop"},
	{"regress_delta_bad", "untrustedindex"},
	// Sanitizer idioms: the accepted ones produce an empty golden across all
	// three taint analyzers; the rejected shapes — caps that bound nothing,
	// guards a path escapes, positive-step guards that admit zero — must each
	// report.
	{"taintsan_accepted", "untrustedalloc,untrustedloop,untrustedindex"},
	{"taintsan_rejected_bad", "untrustedalloc,untrustedloop"},
	// Suppression scope: a directive inside a go/defer literal must not
	// silence the enclosing statement's finding on the shared line.
	{"lintscope_bad", "errcheck"},
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("unknown analyzer %q", name)
	return nil
}

// loadCase loads every package beneath testdata/src/<name> with the shared
// loader and returns the diagnostics of the one analyzer the case targets,
// relativized to the case directory so goldens are location-independent.
func runCase(t *testing.T, loader *Loader, name, analyzer string) string {
	t.Helper()
	caseDir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand(caseDir, []string{"./..."})
	if err != nil {
		t.Fatalf("expand %s: %v", name, err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	var sel []*Analyzer
	for _, name := range strings.Split(analyzer, ",") {
		sel = append(sel, analyzerByName(t, name))
	}
	diags := Run(pkgs, sel, caseDir)
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCase(t, loader, tc.name, tc.analyzer)
			goldenPath := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/analysis -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestGoldenPositiveCasesReport guards against a silently broken analyzer:
// every _bad case must produce at least one diagnostic of its own analyzer,
// and every _suppressed case must produce none (a malformed-directive "lint"
// diagnostic is allowed).
func TestGoldenPositiveCasesReport(t *testing.T) {
	for _, tc := range goldenCases {
		goldenPath := filepath.Join("testdata", "golden", tc.name+".txt")
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run go test ./internal/analysis -update): %v", err)
		}
		for _, analyzer := range strings.Split(tc.analyzer, ",") {
			tag := "[" + analyzer + "]"
			switch {
			case strings.HasSuffix(tc.name, "_bad"):
				if !strings.Contains(string(data), tag) {
					t.Errorf("%s: golden has no %s diagnostics; the analyzer found nothing in its positive fixture", tc.name, tag)
				}
			case strings.HasSuffix(tc.name, "_suppressed"):
				if strings.Contains(string(data), tag) {
					t.Errorf("%s: golden still contains %s diagnostics; suppression is not working", tc.name, tag)
				}
			}
		}
	}
}

// TestGoldenNoOrphans fails when a golden file or a fixture directory has no
// goldenCases entry: a golden that outlives its analyzer is dead weight that
// still reads like coverage.
func TestGoldenNoOrphans(t *testing.T) {
	// Owned by other tests: the CFG dump golden (TestCFGDumps) and the
	// call-graph fixture package (callgraph_test.go).
	known := map[string]bool{"cfg_dumps": true, "callgraphx": true}
	for _, tc := range goldenCases {
		known[tc.name] = true
	}
	for _, dir := range []string{"golden", "src"} {
		entries, err := os.ReadDir(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := strings.TrimSuffix(e.Name(), ".txt"); !known[name] {
				t.Errorf("testdata/%s/%s has no goldenCases entry: add the case or delete the orphan", dir, e.Name())
			}
		}
	}
}
