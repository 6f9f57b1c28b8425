// The size budget: the non-test line count of every package under internal/
// and cmd/ is pinned here, so a change that grows or shrinks the code says so
// in the same diff that re-pins the table.
package pressio

import (
	"bytes"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSizeBudget counts the newlines of every non-test .go file under
// internal/ and cmd/ (testdata excluded; the same count as `wc -l`) per
// package directory and compares them with the pinned table. Any difference,
// in either direction, fails and prints the table to paste in.
func TestSizeBudget(t *testing.T) {
	want := map[string]int{
		"cmd/pressio":          310,
		"cmd/pressio-bench":    227,
		"cmd/pressio-exp":      145,
		"cmd/pressio-fsck":     101,
		"cmd/pressio-fuzz":     208,
		"cmd/pressio-zchecker": 101,
		"cmd/pressiod":         161,
		"cmd/pressiolint":      28,
		"internal/analysis":    6473,
		"internal/bitgroom":    207,
		"internal/bitstream":   207,
		"internal/cloc":        124,
		"internal/cluster":     958,
		"internal/core":        3133,
		"internal/daemon":      1289,
		"internal/experiments": 908,
		"internal/faultinject": 722,
		"internal/fpzip":       449,
		"internal/fsx":         298,
		"internal/h5lite":      407,
		"internal/huffman":     513,
		"internal/launch":      375,
		"internal/lossless":    564,
		"internal/meta":        1247,
		"internal/metrics":     1172,
		"internal/mgard":       422,
		"internal/obslog":      86,
		"internal/opt":         247,
		"internal/pio":         839,
		"internal/rangecoder":  291,
		"internal/resilience":  904,
		"internal/sdrbench":    184,
		"internal/service":     767,
		"internal/stats":       182,
		"internal/store":       1966,
		"internal/stream":      349,
		"internal/sz":          1180,
		"internal/trace":       1263,
		"internal/tthresh":     592,
		"internal/zfp":         934,
	}
	got := map[string]int{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			data, err := os.ReadFile(path)
			got[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(data, []byte("\n"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if maps.Equal(got, want) {
		return
	}
	var diff, table strings.Builder
	total, pinned := 0, 0
	dirs := maps.Clone(got)
	maps.Copy(dirs, want)
	for _, dir := range slices.Sorted(maps.Keys(dirs)) {
		total, pinned = total+got[dir], pinned+want[dir]
		if got[dir] != want[dir] {
			fmt.Fprintf(&diff, "  %s: %d, pinned %d (%+d)\n", dir, got[dir], want[dir], got[dir]-want[dir])
		}
		if got[dir] > 0 {
			fmt.Fprintf(&table, "\t\t%q: %d,\n", dir, got[dir])
		}
	}
	t.Errorf("non-test lines under internal/ and cmd/ are %d, pinned %d (%+d):\n%s"+
		"if the change is intended, re-pin want in TestSizeBudget with:\n%s",
		total, pinned, total-pinned, diff.String(), table.String())
}
