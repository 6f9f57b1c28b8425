package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicFree flags bare panic(...) calls written directly in the
// CompressImpl/DecompressImpl bodies of compressor plugins reachable through
// the registry. The plugin contract is to return an error: a corrupt stream
// or hostile option must surface as a value the caller can route through the
// guard/fallback resilience layer, not unwind the embedding process. The
// guard meta-compressor does convert stray panics to ErrPanicked at the
// boundary, but that is a containment net for third-party code, not license
// for first-party plugins to throw. Deliberate panics (such as a fault
// injector's) are waived with //lint:ignore panicfree <reason>.
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc:  "constructed compressor plugins must return errors from CompressImpl/DecompressImpl, not panic",
	Run:  runPanicFree,
}

func runPanicFree(pass *Pass) {
	if !strings.Contains("/"+pass.Pkg.Path+"/", "/internal/") {
		return // the internal/ plugin tree
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || d.Name.Name != "CompressImpl" && d.Name.Name != "DecompressImpl" {
				continue
			}
			// A compressor plugin is a type with Prefix, CompressImpl and
			// DecompressImpl in its method set. One never constructed cannot
			// be registered, so its panics are unreachable.
			fn, _ := pass.Pkg.Info.Defs[d.Name].(*types.Func)
			recv := receiverType(fn)
			if recv == nil || !pass.Facts.constructed[recv] {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(recv.Type()))
			if ms.Lookup(nil, "Prefix") == nil || ms.Lookup(nil, "CompressImpl") == nil || ms.Lookup(nil, "DecompressImpl") == nil {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					pass.Reportf(call.Pos(),
						"panic in %s.%s: plugins must return errors — a corrupt stream or bad option must not kill the embedding process",
						recv.Name(), d.Name.Name)
				}
				return true
			})
		}
	}
}
