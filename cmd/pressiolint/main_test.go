package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"pressio/internal/analysis"
)

// TestMainCleanPackage runs the CLI in-process over this package, which must
// be lint-clean, and expects exit code 0 with no output.
func TestMainCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := analysis.Main([]string{"."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", stdout.String())
	}
}

// TestMainFindings runs the CLI over a deliberately broken fixture tree
// and checks the exit code and that every line is one well-formed
// "file:line:col [analyzer] message" diagnostic.
func TestMainFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := analysis.Main(
		[]string{"-run", "forbidden", "../../internal/analysis/testdata/src/forbidden_bad/..."},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("no diagnostics for a broken fixture tree")
	}
	line := regexp.MustCompile(`^[^:]+\.go:[1-9][0-9]*:[1-9][0-9]* \[forbidden\] .+$`)
	for _, l := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("malformed diagnostic line %q", l)
		}
	}
}

// TestMainSARIF runs the CLI with -sarif over a broken fixture tree and pins
// the SARIF 2.1.0 shape: schema/version headers, one run with the
// pressiolint driver, the selected analyzer present in the ruleset, and every
// result carrying a ruleId, message and physical location.
func TestMainSARIF(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := analysis.Main(
		[]string{"-sarif", "-run", "lockcheck", "../../internal/analysis/testdata/src/lockcheck_bad/..."},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version = %q schema = %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pressiolint" {
		t.Errorf("driver name = %q, want pressiolint", run.Tool.Driver.Name)
	}
	foundRule := false
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "lockcheck" && r.ShortDescription.Text != "" {
			foundRule = true
		}
	}
	if !foundRule {
		t.Errorf("ruleset missing lockcheck: %+v", run.Tool.Driver.Rules)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a broken fixture tree")
	}
	for _, r := range run.Results {
		if r.RuleID != "lockcheck" || r.Level != "warning" || r.Message.Text == "" {
			t.Errorf("malformed result: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if !strings.HasSuffix(loc.ArtifactLocation.URI, ".go") ||
			loc.Region.StartLine == 0 || loc.Region.StartColumn == 0 {
			t.Errorf("malformed location: %+v", loc)
		}
	}
}

// TestMainUsageErrors checks the conditions that must exit 2: unknown
// analyzers, unknown flags (the removed -baseline among them), a value on
// the list-only -analyzers flag, and unresolvable package patterns.
func TestMainUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-run", "nosuch", "."},
		{"-definitely-not-a-flag"},
		{"-baseline", "x", "."},
		{"-analyzers=hotalloc", "."},
		{"./does/not/exist"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := analysis.Main(args, &stdout, &stderr); code != 2 {
			t.Errorf("Main(%v) = %d, want 2", args, code)
		}
	}
}

// TestMainAnalyzerList checks -analyzers prints one line per analyzer.
func TestMainAnalyzerList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := analysis.Main([]string{"-analyzers"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{
		"threadsafe", "errcheck", "forbidden", "panicfree",
		"lockcheck", "bufalias", "errflow",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-analyzers output missing %q:\n%s", name, stdout.String())
		}
	}
}
