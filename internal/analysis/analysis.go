// Package analysis implements pressiolint, the project's static-analysis
// suite. It is a from-scratch analyzer driver built only on the standard
// library (go/parser, go/ast, go/types — no golang.org/x/tools) that loads
// every package in the module and enforces the plugin invariants the
// LibPressio architecture relies on: honest pressio:thread_safe
// declarations, handled errors on the compression hot path, deterministic,
// embeddable codec packages, and decoders that bound what they read from
// untrusted streams. The plugin registration contract is not among them:
// internal/core's registry enforces it at startup. See docs/STATIC_ANALYSIS.md.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Diagnostic is one finding, addressable by file position. File is relative
// to the base directory passed to Run (the module root for CLI runs).
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical
// "file:line:col [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over every analyzed package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// suppressions.
	Name string
	// Doc is a one-line description shown by pressiolint -analyzers.
	Doc string
	// Run reports findings for pass.Pkg through pass.Reportf.
	Run func(pass *Pass)
}

// Analyzers returns the full suite in stable order: the four syntactic
// checks, the three flow-sensitive ones built on the CFG/dataflow layer, the
// four interprocedural ones built on the call-graph/summary layer, then the
// three taint-driven ones built on the untrusted-input engine (taint.go).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ThreadSafe, ErrCheck, Forbidden, PanicFree,
		LockCheck, BufAlias, ErrFlow,
		GoroutineLeak, CtxFlow, BlockingLock, HotAlloc,
		UntrustedAlloc, UntrustedLoop, UntrustedIndex, DeadCode,
	}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts holds module-wide information computed before analyzers run.
	Facts *Facts

	base  string
	diags *[]Diagnostic
	// units memoises the package's function units across its passes; see
	// forEachUnit.
	units *[]*unitFlow
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     relTo(p.base, position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func relTo(base, filename string) string {
	if base == "" {
		return filepath.ToSlash(filename)
	}
	rel, err := filepath.Rel(base, filename)
	if err != nil {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// Facts is the module-wide context shared by all analyzers.
type Facts struct {
	// Graph is the module-local call graph over the analyzed set (static
	// dispatch + interface-method resolution), SCC-condensed.
	Graph *CallGraph
	// Summaries holds the per-function interprocedural summaries computed
	// bottom-up over Graph.
	Summaries *Summaries
	// Taint is the untrusted-input taint computation over Graph, consumed by
	// the untrustedalloc/untrustedloop/untrustedindex analyzers.
	Taint *TaintInfo
	// constructed is constructedTypes over the analyzed set.
	constructed set[*types.TypeName]
	// live is deadcode's reachable set, computed only when deadcode runs.
	live map[*FuncNode]bool
}

// constructedTypes returns the named types the analyzed code names somewhere
// besides their own method receivers (each declared method's receiver names
// its type once). A type named nowhere else is never constructed, so its
// methods can run on no value: panicfree and deadcode leave such a type's
// interface methods out.
func constructedTypes(pkgs []*Package) set[*types.TypeName] {
	uses := map[*types.TypeName]int{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				uses[tn]++
			}
		}
	}
	named := set[*types.TypeName]{}
	for tn, n := range uses {
		if t, ok := tn.Type().(*types.Named); ok && n > t.NumMethods() {
			named[tn] = true
		}
	}
	return named
}

// receiverType returns the named type method fn is declared on, nil when fn
// is nil or a function.
func receiverType(fn *types.Func) *types.TypeName {
	if fn == nil || fn.Signature().Recv() == nil {
		return nil
	}
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// calleeName extracts the bare called name from pkg.F(...), recv.F(...) or
// F(...) call forms.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// stringLit unquotes e when it is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return v, true
}

// Run executes the given analyzers over the packages, applies //lint:ignore
// suppressions, and returns the surviving diagnostics sorted by position.
// base is the directory diagnostics are relativized against. Packages are
// analyzed concurrently (bounded by GOMAXPROCS); the module-wide fact
// structures are built once up front and are read-only during the fan-out,
// and the final position sort makes the output order deterministic.
func Run(pkgs []*Package, analyzers []*Analyzer, base string) []Diagnostic {
	return runWith(pkgs, analyzers, base, runtime.GOMAXPROCS(0))
}

// runWith is Run with an explicit worker count, so tests and benchmarks can
// pin sequential-vs-parallel behavior.
func runWith(pkgs []*Package, analyzers []*Analyzer, base string, workers int) []Diagnostic {
	facts := &Facts{Graph: BuildCallGraph(pkgs), constructed: constructedTypes(pkgs)}
	facts.Summaries = ComputeSummaries(facts.Graph)
	facts.Taint = ComputeTaint(facts.Graph)
	if slices.Contains(analyzers, DeadCode) {
		facts.live = liveFuncs(facts, pkgs, base)
	}
	var diags []Diagnostic
	var sups []suppression
	for _, pkg := range pkgs {
		s, malformed := collectSuppressions(pkg, base)
		sups = append(sups, s...)
		diags = append(diags, malformed...)
	}
	workers = max(1, min(workers, len(pkgs)))
	// Fan out per package: each package owns a disjoint diagnostic slice (and
	// unit memo) and is analyzed by one worker, so Pass.Reportf never races;
	// facts/Graph/Summaries/Taint are read-only.
	perPkg := make([][]Diagnostic, len(pkgs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				var units []*unitFlow
				for _, a := range analyzers {
					a.Run(&Pass{Analyzer: a, Pkg: pkgs[i], Facts: facts, base: base, diags: &perPkg[i], units: &units})
				}
			}
		}()
	}
	for i := range pkgs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	diags = filterSuppressed(diags, sups, newScopeIndex(pkgs, base))
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Analyzer, b.Analyzer), cmp.Compare(a.Message, b.Message))
	})
	return diags
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	analyzer string // analyzer name or "all"
	file     string // relative to the run base, like Diagnostic.File
	line     int
	col      int
}

// collectSuppressions parses //lint:ignore <analyzer> <reason> comments. A
// suppression silences matching diagnostics on its own line or on the line
// directly below (comment-above-statement style). Ignore directives missing
// the analyzer or the reason are themselves reported under the "lint"
// pseudo-analyzer so suppressions stay auditable.
func collectSuppressions(pkg *Package, base string) ([]suppression, []Diagnostic) {
	var sups []suppression
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				file := relTo(base, position.Filename)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						File:     file,
						Line:     position.Line,
						Col:      position.Column,
						Analyzer: "lint",
						Message:  `malformed ignore directive: want "//lint:ignore <analyzer> <reason>"`,
					})
					continue
				}
				sups = append(sups, suppression{
					analyzer: fields[0],
					file:     file,
					line:     position.Line,
					col:      position.Column,
				})
			}
		}
	}
	return sups, malformed
}

// scopeIndex resolves a (file, line, col) position to the innermost
// enclosing function body — declared function or function literal — so
// suppressions match by scope, not just by line. A //lint:ignore inside a
// function literal passed to go/defer used to match by line alone and could
// mis-suppress a finding on the enclosing statement sharing that line.
type scopeIndex struct {
	files map[string][]scopeExtent
}

// scopeExtent is one function-body extent; parent indexes the enclosing
// extent in the same file (-1 for file scope).
type scopeExtent struct {
	parent              int
	startLine, startCol int
	endLine, endCol     int
}

func newScopeIndex(pkgs []*Package, base string) *scopeIndex {
	idx := &scopeIndex{files: make(map[string][]scopeExtent)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			pos := pkg.Fset.Position(f.Pos())
			file := relTo(base, pos.Filename)
			var extents []scopeExtent
			var stack []int // extent indexes of the enclosing bodies
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					return true
				}
				var body *ast.BlockStmt
				switch x := n.(type) {
				case *ast.FuncDecl:
					body = x.Body
				case *ast.FuncLit:
					body = x.Body
				default:
					return true
				}
				if body == nil {
					return true
				}
				start := pkg.Fset.Position(body.Pos())
				end := pkg.Fset.Position(body.End())
				parent := -1
				// Pop extents that no longer enclose this body.
				for len(stack) > 0 {
					top := extents[stack[len(stack)-1]]
					if beforeEq(top.startLine, top.startCol, start.Line, start.Column) &&
						beforeEq(end.Line, end.Column, top.endLine, top.endCol) {
						parent = stack[len(stack)-1]
						break
					}
					stack = stack[:len(stack)-1]
				}
				extents = append(extents, scopeExtent{
					parent:    parent,
					startLine: start.Line, startCol: start.Column,
					endLine: end.Line, endCol: end.Column,
				})
				stack = append(stack, len(extents)-1)
				return true
			})
			idx.files[file] = append(idx.files[file], extents...)
		}
	}
	return idx
}

// beforeEq reports (l1,c1) <= (l2,c2) in source order.
func beforeEq(l1, c1, l2, c2 int) bool {
	return l1 < l2 || (l1 == l2 && c1 <= c2)
}

// scopeOf returns the index of the innermost extent containing the position
// (-1 for file scope).
func (idx *scopeIndex) scopeOf(file string, line, col int) int {
	best := -1
	for i, e := range idx.files[file] {
		if !beforeEq(e.startLine, e.startCol, line, col) || !beforeEq(line, col, e.endLine, e.endCol) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := idx.files[file][best]
		if beforeEq(b.startLine, b.startCol, e.startLine, e.startCol) {
			best = i // later-starting contained extent is innermore
		}
	}
	return best
}

// ancestorOf reports whether extent a encloses (or is) extent b in file.
func (idx *scopeIndex) ancestorOf(file string, a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == -1 {
			return false
		}
		b = idx.files[file][b].parent
	}
}

// filterSuppressed drops diagnostics covered by a suppression. Matching is
// keyed by (line, analyzer, innermost enclosing function): a same-line
// directive only covers findings in its own scope, and a comment-above
// directive covers findings in its scope or any nested one — so a
// //lint:ignore inside `go func() { ... }` cannot silence the enclosing
// statement's finding on the shared line.
func filterSuppressed(diags []Diagnostic, sups []suppression, scopes *scopeIndex) []Diagnostic {
	if len(sups) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
	}
	index := make(map[key][]suppression)
	for _, s := range sups {
		index[key{s.file, s.line}] = append(index[key{s.file, s.line}], s)
	}
	matches := func(d Diagnostic, line int) bool {
		for _, s := range index[key{d.File, line}] {
			if s.analyzer != d.Analyzer && s.analyzer != "all" {
				continue
			}
			supScope := scopes.scopeOf(d.File, s.line, s.col)
			diagScope := scopes.scopeOf(d.File, d.Line, d.Col)
			if line == d.Line {
				// Trailing same-line directive: exact scope only.
				if supScope == diagScope {
					return true
				}
				continue
			}
			// Comment-above directive: its scope or any scope nested in it
			// (covers a comment above a closure suppressing inside it).
			if scopes.ancestorOf(d.File, supScope, diagScope) {
				return true
			}
		}
		return false
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "lint" && (matches(d, d.Line) || matches(d, d.Line-1)) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
