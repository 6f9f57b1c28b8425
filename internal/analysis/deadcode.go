package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// DeadCode reports every function or method under internal/ or cmd/ that no
// root reaches over the call graph. docs/STATIC_ANALYSIS.md lists the roots.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "functions and methods under internal/ and cmd/ must be reachable from a root (or marked //pressio:api)",
	Run: func(pass *Pass) {
		for _, n := range pass.Facts.Graph.Nodes {
			if n.Pkg == pass.Pkg && n.Decl != nil && !pass.Facts.live[n] {
				pass.Reportf(n.Decl.Name.Pos(), "%s is reached from no root: delete it, move it into a _test.go file, or mark LibPressio API surface //pressio:api", n.Name)
			}
		}
	},
}

// liveFuncs returns the call-graph closure of deadcode's roots. A method
// named like an interface method is a root only when its receiver type is
// constructed: a plugin implementation nothing builds is never registered.
func liveFuncs(facts *Facts, pkgs []*Package, base string) map[*FuncNode]bool {
	g := facts.Graph
	// The standard library dispatches to these through interfaces it never names.
	ifaceMethods := set[string]{"Error": true, "Unwrap": true, "Is": true, "As": true, "CloseIdleConnections": true}
	loaded := map[string]*Package{}
	for _, pkg := range pkgs {
		loaded[pkg.Dir] = pkg
		for _, tp := range append(pkg.Types.Imports(), pkg.Types) {
			for _, name := range tp.Scope().Names() {
				if it, ok := tp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					for m := range it.Methods() {
						ifaceMethods[m.Name()] = true
					}
				}
			}
		}
	}
	// Other packages' tests keep alive what they select from an import: any
	// selection may name a method (".path.M"), only pkg.F names a function.
	// A package left out of the run makes it partial: exported names are roots.
	dirs, _ := (*Loader)(nil).Expand(base, []string{"./..."}) // reads no loader state
	whole, extern := true, set[string]{}
	for _, dir := range dirs {
		whole = whole && loaded[dir] != nil
		tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range tests {
			if file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution); err == nil {
				ast.Inspect(file, func(x ast.Node) bool {
					sel, ok := x.(*ast.SelectorExpr)
					for _, imp := range file.Imports {
						if p, _ := strconv.Unquote(imp.Path.Value); ok && (loaded[dir] == nil || p != loaded[dir].Path) {
							id, _ := sel.X.(*ast.Ident)
							extern["."+p+"."+sel.Sel.Name] = true
							extern[p+"."+sel.Sel.Name] = extern[p+"."+sel.Sel.Name] || id != nil && (id.Name == path.Base(p) || imp.Name != nil && id.Name == imp.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	var roots []*FuncNode
	for _, n := range g.Nodes {
		scoped := strings.Contains(n.Pkg.Path+"/", "/internal/") || strings.Contains(n.Pkg.Path+"/", "/cmd/")
		if d := n.Decl; d == nil && n.Name == n.Pkg.Path+".$lit" || d != nil && (!scoped ||
			hasDirective(d, "pressio:api") || !whole && d.Name.IsExported() ||
			d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init" || extern[n.Pkg.Path+"."+d.Name.Name]) ||
			d.Recv != nil && (ifaceMethods[d.Name.Name] && facts.constructed[receiverType(n.Obj)] || extern["."+n.Pkg.Path+"."+d.Name.Name])) {
			roots = append(roots, n)
		}
	}
	// A function named anywhere but as the callee of a call in a body is a
	// value the graph cannot follow, or runs at package initialization.
	called := set[*ast.Ident]{}
	for _, n := range g.Nodes {
		for _, e := range n.Calls {
			switch fun := ast.Unparen(e.Site.Fun).(type) {
			case *ast.Ident:
				called[fun] = true
			case *ast.SelectorExpr:
				called[fun.Sel] = true
			}
		}
	}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !called[id] {
				roots = append(roots, g.NodeOf(fn.Origin()))
			}
		}
	}
	return g.Reachable(roots)
}
