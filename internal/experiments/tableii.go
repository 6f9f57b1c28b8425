package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pressio/internal/cloc"
)

// LocTask is one row of Table II: a use case implemented both natively
// (once per compressor) and once against the generic interface.
type LocTask struct {
	Name string
	// Compressors is how many compressors the native side supports (the
	// generic side supports every registered plugin).
	Compressors int
	// NativeDirs are the per-compressor implementations, summed (as the
	// paper does for rows with no multi-compressor native equivalent).
	NativeDirs []string
	// GenericDirs are the generic-interface implementation's sources.
	GenericDirs []string
	// NoNativeEquivalent marks rows the paper tags with a dagger.
	NoNativeEquivalent bool
}

// LocRow is the measured outcome for one task.
type LocRow struct {
	Task         LocTask
	NativeLines  int
	GenericLines int
	Improvement  int
	RelativePct  float64
}

// Tasks lists the Table II rows this repository reproduces. "Bindings" rows
// from the paper (Julia/Python/R/Rust) are represented by the stream
// adapter task: in Go the analogous artifact is an io-stream adapter layer
// written per-compressor versus once generically.
func Tasks() []LocTask {
	return []LocTask{
		{
			Name:        "CLI",
			Compressors: 3,
			NativeDirs:  []string{"clients/native/sz-cli", "clients/native/zfp-cli", "clients/native/mgard-cli"},
			GenericDirs: []string{"cmd/pressio"},
		},
		{
			Name:        "HDF5 filter",
			Compressors: 2,
			NativeDirs:  []string{"clients/native/h5filter-sz", "clients/native/h5filter-zfp"},
			GenericDirs: []string{"clients/pressio/h5filter"},
		},
		{
			Name:        "Z-Checker",
			Compressors: 4,
			NativeDirs:  []string{"clients/native/zchecker"},
			GenericDirs: []string{"cmd/pressio-zchecker"},
		},
		{
			Name:        "Configuration optimizer",
			Compressors: 2,
			NativeDirs:  []string{"clients/native/sz-opt", "clients/native/zfp-opt", "clients/native/opt-race"},
			GenericDirs: []string{"internal/opt"},
		},
		{
			Name:        "Stream adapter (bindings)",
			Compressors: 3,
			NativeDirs:  []string{"clients/native/sz-writer", "clients/native/zfp-writer", "clients/native/mgard-writer"},
			GenericDirs: []string{"clients/pressio/writer"},
		},
		{
			Name:               "Fuzzer",
			GenericDirs:        []string{"cmd/pressio-fuzz"},
			NoNativeEquivalent: true,
		},
		{
			Name:               "DistributedExperiment",
			GenericDirs:        []string{"cmd/pressio-exp"},
			NoNativeEquivalent: true,
		},
	}
}

// RepoRoot walks upward from the working directory to the module root.
func RepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("experiments: go.mod not found above working directory")
		}
		dir = parent
	}
}

// TableII measures every task relative to the repository root.
func TableII(root string) ([]LocRow, error) {
	count := func(dirs []string) (int, error) {
		total := 0
		for _, d := range dirs {
			c, err := cloc.CountDir(filepath.Join(root, d), []string{".go"}, true)
			if err != nil {
				return 0, fmt.Errorf("counting %s: %w", d, err)
			}
			total += c.Code
		}
		return total, nil
	}
	var rows []LocRow
	for _, task := range Tasks() {
		nat, err := count(task.NativeDirs)
		if err != nil {
			return nil, err
		}
		gen, err := count(task.GenericDirs)
		if err != nil {
			return nil, err
		}
		row := LocRow{Task: task, NativeLines: nat, GenericLines: gen}
		if nat > 0 {
			row.Improvement = nat - gen
			row.RelativePct = 100 * float64(nat-gen) / float64(nat)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableIIReport renders the rows in the paper's Table II format.
func TableIIReport(rows []LocRow) string {
	var cells [][]string
	for _, r := range rows {
		name := r.Task.Name
		if r.Task.NoNativeEquivalent {
			name += " (+)"
		}
		nat, imp, rel := "-", "-", "-"
		if r.NativeLines > 0 {
			nat = fmt.Sprintf("%d", r.NativeLines)
			imp = fmt.Sprintf("%d", r.Improvement)
			rel = fmt.Sprintf("%.2f%%", r.RelativePct)
		}
		comp := "-"
		if r.Task.Compressors > 0 {
			comp = fmt.Sprintf("%d", r.Task.Compressors)
		}
		cells = append(cells, []string{
			name, comp, nat, fmt.Sprintf("%d", r.GenericLines), imp, rel,
		})
	}
	return "Table II: lines of client code ((+) marks rows with no native multi-compressor equivalent)\n" +
		Table([]string{"task", "compressors", "lines native", "lines generic", "improvement", "relative"}, cells)
}
