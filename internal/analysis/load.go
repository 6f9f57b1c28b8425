package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package. Test files
// (*_test.go) are excluded: the invariants pressiolint enforces apply to
// shipping code, and tests legitimately use raw key literals, discarded
// errors and panics.
type Package struct {
	// Path is the import path, e.g. "pressio/internal/sz".
	Path string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset positions every file in the loader's shared FileSet.
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package; non-nil even when checking was
	// incomplete (see TypeErrors).
	Types *types.Package
	// Info carries the use/def/type resolution analyzers consult. Analyzers
	// must tolerate missing entries: type checking is best-effort.
	Info *types.Info
	// TypeErrors collects soft type-check problems. Analyzers still run;
	// the driver surfaces these only in verbose mode.
	TypeErrors []error
}

// Loader loads module packages with full type information using only the
// standard library: module-internal imports resolve against the module
// directory tree, and everything else (the standard library) is type-checked
// from GOROOT source via go/importer's "source" compiler. No x/tools.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package // keyed by absolute directory
	loading map[string]bool     // cycle guard, keyed by directory
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// The standard-library importer is process-global: type-checking GOROOT from
// source dominates whole-module lint time, and the results are identical for
// every Loader in the process (GOROOT does not change underneath us). Sharing
// one importer means the stdlib is checked at most once per process instead
// of once per Loader — every CLI invocation, golden-test case and benchmark
// iteration after the first reuses the cache. The stdlib packages carry
// positions in their own private FileSet; that is fine because diagnostics
// only ever point into module sources, which live in the Loader's FileSet.
var (
	stdImporterOnce sync.Once
	stdImporter     types.Importer
)

// sharedStdImporter returns the lazily-built global GOROOT source importer.
func sharedStdImporter() types.Importer {
	stdImporterOnce.Do(func() {
		stdImporter = &lockedImporter{
			imp: importer.ForCompiler(token.NewFileSet(), "source", nil),
		}
	})
	return stdImporter
}

// lockedImporter serializes access to the wrapped importer: the go/importer
// source implementation mutates its package cache on Import and is not safe
// for concurrent use, but the global importer may be reached from parallel
// tests.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// NewLoader builds a loader rooted at the module containing moduleRoot. All
// loaders share the process-global standard-library importer.
func NewLoader(moduleRoot string) (*Loader, error) {
	return newLoaderWithStd(moduleRoot, sharedStdImporter())
}

// newLoaderWithStd is NewLoader with an explicit standard-library importer,
// so benchmarks can measure a cold (per-loader) importer against the shared
// one.
func newLoaderWithStd(moduleRoot string, std types.Importer) (*Loader, error) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: mod,
		std:        std,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else defers to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importPathFor maps an absolute directory to its module import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the package in dir (absolute or relative to
// the module root). Results are cached; import cycles are hard errors.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.ModuleRoot, dir)
	}
	dir = filepath.Clean(dir)
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("analysis: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := &Package{
		Path: l.importPathFor(dir),
		Dir:  dir,
		Fset: l.Fset,
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) package even on soft errors;
	// analyzers are written to tolerate missing type information.
	tpkg, _ := conf.Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[dir] = pkg
	return pkg, nil
}

// goSourceFiles lists the non-test Go files in dir that match the current
// build context (GOOS/GOARCH file suffixes and //go:build constraints),
// sorted for deterministic positions.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves package patterns relative to base into package directories.
// A trailing "/..." matches the directory and everything below it, skipping
// testdata, vendor and hidden directories (unless the pattern base itself
// points inside one, so fixtures remain addressable explicitly).
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pattern := range patterns {
		stem, recursive := strings.CutSuffix(pattern, "...")
		stem = strings.TrimSuffix(stem, "/")
		if stem == "" {
			stem = "."
		}
		if !filepath.IsAbs(stem) {
			stem = filepath.Join(base, stem)
		}
		fi, err := os.Stat(stem)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pattern, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q: not a directory", pattern)
		}
		if !recursive {
			names, err := goSourceFiles(stem)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("analysis: no buildable Go files in %s", stem)
			}
			add(stem)
			continue
		}
		err = filepath.WalkDir(stem, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != stem && skipDirName(d.Name()) {
				return filepath.SkipDir
			}
			names, err := goSourceFiles(path)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDirName reports whether wildcard expansion should prune the directory,
// mirroring the go tool's treatment of testdata and hidden directories.
func skipDirName(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}
