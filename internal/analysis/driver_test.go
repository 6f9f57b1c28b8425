package analysis

import (
	"bytes"
	"strings"
	"testing"
)

func TestMainListsAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Main([]string{"-analyzers"}, &out, &errOut); code != 0 {
		t.Fatalf("bare -analyzers exited %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-analyzers listing is missing %q", a.Name)
		}
	}
}

func TestMainRejectsUnknownAnalyzers(t *testing.T) {
	args := []string{"-run", "hotalloc,nosuch", "testdata/src/hotalloc_bad"}
	var out, errOut bytes.Buffer
	if code := Main(args, &out, &errOut); code != 2 {
		t.Errorf("Main(%v) exited %d, want 2", args, code)
	}
	if !strings.Contains(errOut.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("Main(%v) stderr %q does not name the unknown analyzer", args, errOut.String())
	}
	if !strings.Contains(errOut.String(), "errcheck") {
		t.Errorf("Main(%v) stderr %q does not list the known analyzers", args, errOut.String())
	}
}

// TestMainRejectsRemovedFlags pins the two deleted capabilities as usage
// errors: baseline mode is gone (the gate is zero findings), and -run is the
// one way to select analyzers (-analyzers only lists).
func TestMainRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-baseline", "x", "testdata/src/hotalloc_bad"},
		{"-analyzers=hotalloc", "testdata/src/hotalloc_bad"},
	} {
		var out, errOut bytes.Buffer
		if code := Main(args, &out, &errOut); code != 2 {
			t.Errorf("Main(%v) exited %d, want 2 (stdout: %s)", args, code, out.String())
		}
	}
}

func TestMainAnalyzerSelection(t *testing.T) {
	var out, errOut bytes.Buffer
	code := Main([]string{"-run", "hotalloc", "testdata/src/hotalloc_bad"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("selection run exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[hotalloc]") {
		t.Error("selected analyzer produced no diagnostics")
	}
	for _, other := range []string{"[errcheck]", "[lockcheck]", "[goroutineleak]"} {
		if strings.Contains(out.String(), other) {
			t.Errorf("selection leaked diagnostics from %s", other)
		}
	}
}

func TestSARIFDeduplicatesResults(t *testing.T) {
	d := Diagnostic{File: "a.go", Line: 3, Col: 7, Analyzer: "hotalloc", Message: "boom"}
	other := d
	other.Line = 4
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, Analyzers(), []Diagnostic{d, d, other, d}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"ruleId"`); got != 2 {
		t.Errorf("SARIF has %d results after dedup, want 2\n%s", got, buf.String())
	}
}

// TestRunParallelDeterministic pins the worker-pool contract: the parallel
// fan-out must produce byte-identical diagnostics, in the same order, as a
// sequential run — whatever the worker count.
func TestRunParallelDeterministic(t *testing.T) {
	pkgs := loadedModule(t)
	want := runWith(pkgs, Analyzers(), "", 1)
	for _, workers := range []int{2, 4, 16} {
		got := runWith(pkgs, Analyzers(), "", workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d diagnostics, sequential has %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: diagnostic %d differs:\n got %v\nwant %v", workers, i, got[i], want[i])
			}
		}
	}
}
