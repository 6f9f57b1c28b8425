package analysis

import (
	"go/importer"
	"go/token"
	"runtime"
	"testing"
)

// loadWholeModule expands ./... from the module root and loads every package
// through the given loader — the load half of a whole-module lint run.
func loadWholeModule(b *testing.B, loader *Loader) {
	b.Helper()
	dirs, err := loader.Expand(loader.ModuleRoot, []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := loader.LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadModuleSharedStd measures a whole-module load with the
// process-global GOROOT importer (the production configuration). After the
// first iteration warms the cache, each iteration pays only for parsing and
// type-checking the module itself.
func BenchmarkLoadModuleSharedStd(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		loadWholeModule(b, loader)
	}
}

// BenchmarkLoadModuleColdStd measures the pre-sharing behavior: every loader
// gets a private source importer, so each iteration re-type-checks the
// standard library from GOROOT. The gap against SharedStd is the win from
// the process-global cache.
func BenchmarkLoadModuleColdStd(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		loader, err := newLoaderWithStd(root,
			importer.ForCompiler(token.NewFileSet(), "source", nil))
		if err != nil {
			b.Fatal(err)
		}
		loadWholeModule(b, loader)
	}
}

// loadedModule loads every package of the module once, for benchmarks that
// measure the analyze half (Run) rather than the load half.
func loadedModule(tb testing.TB) []*Package {
	tb.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		tb.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		tb.Fatal(err)
	}
	dirs, err := loader.Expand(root, []string{"./..."})
	if err != nil {
		tb.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			tb.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// BenchmarkRunSequential pins the pre-parallel analyze cost: one worker
// walks every package through all seventeen analyzers.
func BenchmarkRunSequential(b *testing.B) {
	pkgs := loadedModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWith(pkgs, Analyzers(), "", 1)
	}
}

// BenchmarkRunParallel is the production configuration: the per-package
// fan-out bounded by GOMAXPROCS. The gap against RunSequential is the
// speedup the worker pool buys.
func BenchmarkRunParallel(b *testing.B) {
	pkgs := loadedModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWith(pkgs, Analyzers(), "", runtime.GOMAXPROCS(0))
	}
}
