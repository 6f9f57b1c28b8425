package analysis

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDeadCodeSubsetRun loads the deadcode fixture without its sibling
// package. The run cannot see every caller, so exported names are roots and
// only the unexported dead functions are reported.
func TestDeadCodeSubsetRun(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	caseDir, err := filepath.Abs(filepath.Join("testdata", "src", "deadcode_bad"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(caseDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Run([]*Package{pkg}, []*Analyzer{DeadCode}, caseDir) {
		got = append(got, strings.Fields(d.Message)[0])
	}
	if want := []string{"deadcode_bad.uncalled", "deadcode_bad.testOnly"}; !slices.Equal(got, want) {
		t.Errorf("subset run reported %v, want %v", got, want)
	}
}
