package analysis

import (
	"go/ast"
	"go/types"

	"pressio/internal/core"
)

// ThreadSafe checks that a package whose plugins declare
// pressio:thread_safe of "serialized" or better does not mutate package-level
// state without synchronization. "serialized" promises that distinct
// instances may run concurrently, and "multiple" that a single instance may —
// so any unguarded write to a package-level variable from plugin code is a
// data race waiting for the `many` meta-compressor or sz_omp to schedule it.
//
// The guard test is flow-sensitive: the function's CFG is solved with the
// must-held lock analysis (lockcheck.go), and a write is accepted only when
// at least one lock is held on EVERY path reaching it. The earlier syntactic
// version accepted any write textually below a Lock() call — which blessed
// writes after the Unlock and writes on branches that skip the Lock; those
// now flag. The check remains a static complement to the -race stress tests.
var ThreadSafe = &Analyzer{
	Name: "threadsafe",
	Doc:  "packages declaring pressio:thread_safe >= serialized must hold a lock on every path to a package-level write",
	Run:  runThreadSafe,
}

func runThreadSafe(pass *Pass) {
	level := declaredSafety(pass.Pkg)
	if level == "" {
		return
	}
	if pass.Pkg.Info == nil || pass.Pkg.Types == nil {
		return // needs object resolution to identify package-level variables
	}
	scope := pass.Pkg.Types.Scope()
	forEachUnit(pass, func(u *unitFlow) {
		if u.Decl != nil && u.Decl.Recv == nil && u.Decl.Name.Name == "init" {
			return // single-threaded by the runtime's init contract
		}
		u.walkHeld(func(held set[string], n ast.Node) {
			var targets []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				targets = st.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{st.X}
			default:
				return
			}
			if len(held) > 0 {
				return // some lock is held on every path to this write
			}
			for _, lhs := range targets {
				id := rootIdent(lhs)
				if id == nil {
					continue
				}
				obj := pass.Pkg.Info.ObjectOf(id)
				v, ok := obj.(*types.Var)
				if !ok || v.Parent() != scope {
					continue
				}
				pass.Reportf(lhs.Pos(),
					"package declares thread_safe=%s but %s writes package-level %s without holding a lock on every path",
					level, u.CFG.Name, id.Name)
			}
		})
	})
}

// declaredSafety scans for thread-safety declarations: a
// StandardConfiguration(core.ThreadSafetyMultiple|Serialized, ...) call or an
// explicit SetValue(core.KeyThreadSafe, "multiple"|"serialized"). It returns
// the strongest declared level at or above "serialized", or "".
func declaredSafety(pkg *Package) string {
	level := ""
	upgrade := func(l string) {
		if l == "multiple" || (l == "serialized" && level == "") {
			level = l
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(call) {
			case "StandardConfiguration":
				if len(call.Args) == 0 {
					return true
				}
				ast.Inspect(call.Args[0], func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						switch id.Name {
						case "ThreadSafetyMultiple":
							upgrade("multiple")
						case "ThreadSafetySerialized":
							upgrade("serialized")
						}
					}
					return true
				})
			case "SetValue":
				if len(call.Args) != 2 {
					return true
				}
				if !isThreadSafeKey(call.Args[0]) {
					return true
				}
				if v, ok := stringLit(call.Args[1]); ok && (v == "multiple" || v == "serialized") {
					upgrade(v)
				}
			}
			return true
		})
	}
	return level
}

// isThreadSafeKey matches the pressio:thread_safe key expressed either as the
// core.KeyThreadSafe constant or (in packages that cannot import core) a
// literal with its value.
func isThreadSafeKey(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "KeyThreadSafe"
	case *ast.SelectorExpr:
		return e.Sel.Name == "KeyThreadSafe"
	case *ast.BasicLit:
		v, ok := stringLit(e)
		return ok && v == core.KeyThreadSafe
	}
	return false
}
