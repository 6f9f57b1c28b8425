package analysis

import (
	"go/ast"
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
	Doc:  "registered compressor plugins must return errors from CompressImpl/DecompressImpl, not panic",
	Run:  runPanicFree,
}

func runPanicFree(pass *Pass) {
	if !strings.Contains("/"+pass.Pkg.Path+"/", "/internal/") {
		return // same scope as the registration contract
	}

	// Factory types this package registers as compressors. A factory the
	// facts pass cannot see through (a constructor call rather than a
	// `return &T{...}` literal) could build any local implementation, so
	// its presence keeps every structurally matching type in scope.
	registered := make(map[string]bool)
	anyOpaque := false
	for _, site := range pass.Facts.Sites {
		if site.Kind != kindCompressor || site.PkgPath != pass.Pkg.Path {
			continue
		}
		if site.FactoryType != "" {
			registered[site.FactoryType] = true
		} else {
			anyOpaque = true
		}
	}
	if len(registered) == 0 && !anyOpaque {
		return // package registers no compressors; nothing is reachable
	}

	methods := pass.Facts.Methods[pass.Pkg.Path]
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			if d.Name.Name != "CompressImpl" && d.Name.Name != "DecompressImpl" {
				continue
			}
			recv := receiverTypeName(d)
			if recv == "" || !hasAll(methods[recv], implSignatures[kindCompressor]) {
				continue
			}
			if !registered[recv] && !anyOpaque {
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
						recv, d.Name.Name)
				}
				return true
			})
		}
	}
}
