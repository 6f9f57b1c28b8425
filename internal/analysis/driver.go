package analysis

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// selectAnalyzers resolves a comma-separated name list against the registry,
// preserving registry order and deduplicating. Unknown names are an error
// that spells out what is available.
func selectAnalyzers(all []*Analyzer, names []string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !slices.ContainsFunc(all, func(a *Analyzer) bool { return a.Name == name }) {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (known analyzers: %s)", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return all, nil
	}
	var sel []*Analyzer
	for _, a := range all {
		if want[a.Name] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}

// Main is the pressiolint entry point, factored out of cmd/pressiolint so
// tests can drive the CLI in-process. It returns the process exit code:
// 0 clean, 1 diagnostics reported, 2 usage or load failure.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pressiolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0")
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("analyzers", false, "list analyzers and exit")
	verbose := fs.Bool("v", false, "print soft type-check warnings to stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pressiolint [-sarif] [-run a,b] [-analyzers] [-v] [packages]")
		fmt.Fprintln(stderr, "packages are directories; a trailing /... recurses (default ./...)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var diags []Diagnostic
	analyzers, err := selectAnalyzers(Analyzers(), strings.Split(*runList, ","))
	if err == nil {
		diags, err = lint(analyzers, fs.Args(), *verbose, stderr)
	}
	if err == nil {
		if *sarifOut {
			err = WriteSARIF(stdout, analyzers, diags)
		} else {
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "pressiolint:", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// lint resolves the package patterns (relative to the working directory,
// inside the enclosing module), loads the packages and runs the analyzers.
func lint(analyzers []*Analyzer, patterns []string, verbose bool, stderr io.Writer) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.Expand(cwd, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if verbose {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "pressiolint: typecheck %s: %v\n", pkg.Path, terr)
			}
		}
	}
	return Run(pkgs, analyzers, root), nil
}
