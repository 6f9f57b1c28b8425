package analysis

import (
	"go/ast"
	"go/types"
)

// errcheckMethods are the calls whose errors must not be silently dropped:
// the compression hot path, configuration (SetOptions/CheckOptions and an
// option table's Set/Check: a dropped error means a bound the caller thinks
// applied was not), and io.Closer.Close. returnsError exempts the chaining
// Options.Set, which returns no error.
var errcheckMethods = map[string]bool{
	"Compress":       true,
	"Decompress":     true,
	"CompressImpl":   true,
	"DecompressImpl": true,
	"SetOptions":     true,
	"CheckOptions":   true,
	"Set":            true,
	"Check":          true,
	"Close":          true,
}

// ErrCheck is the errcheck-lite analyzer: a bare expression statement that
// calls one of the watched methods and discards a result set containing an
// error is flagged. `_ = f.Close()` and `defer f.Close()` are accepted — the
// first is an explicit acknowledgment, the second is the standard cleanup
// idiom whose error the surrounding function has usually already superseded.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "errors from Compress/Decompress/SetOptions/Set/Close must not be discarded",
	Run:  runErrCheck,
}

func runErrCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !errcheckMethods[name] {
				return true
			}
			if !returnsError(pass.Pkg, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s contains an error that is discarded: handle it or assign it explicitly",
				name)
			return true
		})
	}
}

// returnsError reports whether the call's result set includes an error. When
// type information is unavailable the watched names are trusted: every
// watched method in this codebase returns an error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	if pkg.Info == nil {
		return true
	}
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return true
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
