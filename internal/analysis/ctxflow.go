package analysis

import (
	"go/ast"
)

// CtxFlow audits context plumbing on request paths. The daemon's overload
// story (admission deadlines, pool-wait cancellation, request timeouts) only
// works if the request context actually reaches the code doing the waiting;
// every place the chain is broken is a request that cannot be cancelled.
//
// Roots are the daemon's HTTP handlers — any function with a *http.Request
// parameter — plus functions marked //pressio:requestpath (how fixtures and
// non-HTTP entry points opt in). Within the full call-graph closure of the
// roots (dynamic dispatch included: a codec invoked by a handler runs on the
// request path), three breaks are reported:
//
//   - context.Background()/context.TODO() minted mid-path, severing the
//     caller's deadline and cancellation;
//   - a context parameter that is accepted but never used (cancellation
//     dead-ends here);
//   - a context stored into a struct field (contexts are call-scoped; a
//     stored one outlives its request and cancels arbitrary later work).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "request-path code must propagate the request context: no Background/TODO, no ignored ctx params, no ctx stored in structs",
	Run:  runCtxFlow,
}

// requestPathDirective marks non-HTTP request-path roots for ctxflow.
const requestPathDirective = "pressio:requestpath"

func runCtxFlow(pass *Pass) {
	g, sums := pass.Facts.Graph, pass.Facts.Summaries
	if g == nil || sums == nil {
		return
	}
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if isRequestRoot(n) {
			roots = append(roots, n)
		}
	}
	closure := g.Reachable(roots)
	for _, node := range g.Nodes {
		if node.Pkg != pass.Pkg || !closure[node] {
			continue
		}
		// Break 1: minting a fresh root context mid-request.
		inspectNoFuncLit(node.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if ok && isContextCtorCall(node.Pkg, call) {
				pass.Reportf(call.Pos(),
					"%s runs on a request path but replaces the request context with a fresh root context; thread the caller's ctx through instead",
					node.ShortName())
			}
			return true
		})
		// Break 2: a context parameter nothing reads.
		if sum := sums.Of(node); sum != nil && sum.HasCtxParam && !sum.UsesCtx {
			pass.Reportf(node.Pos(),
				"%s takes a context on a request path but never uses it: cancellation and deadlines dead-end here",
				node.ShortName())
		}
		// Break 3: a context stored into a struct field.
		inspectNoFuncLit(node.Body, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if exprIsContext(node.Pkg, x.Rhs[i]) {
						pass.Reportf(sel.Pos(),
							"%s stores a request context in a struct field; contexts are call-scoped — pass it as a parameter",
							node.ShortName())
					}
				}
			case *ast.KeyValueExpr:
				// (a KeyValueExpr only ever appears inside a composite literal)
				if _, isIdent := x.Key.(*ast.Ident); isIdent && exprIsContext(node.Pkg, x.Value) {
					pass.Reportf(x.Pos(),
						"%s stores a request context in a struct literal field; contexts are call-scoped — pass it as a parameter",
						node.ShortName())
				}
			}
			return true
		})
	}
}

// isRequestRoot recognizes the request-path entry points: HTTP handlers
// (some parameter is *<pkg>.Request — syntactic, so handler shims in any
// package qualify) and //pressio:requestpath-marked declarations.
func isRequestRoot(n *FuncNode) bool {
	if n.Decl == nil {
		return false
	}
	if hasDirective(n.Decl, requestPathDirective) {
		return true
	}
	if n.Decl.Type.Params == nil {
		return false
	}
	for _, f := range n.Decl.Type.Params.List {
		star, ok := f.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Request" {
			return true
		}
	}
	return false
}

// exprIsContext reports whether the expression's static type is
// context.Context.
func exprIsContext(pkg *Package, e ast.Expr) bool {
	if pkg.Info == nil {
		return false
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isContextType(tv.Type)
}
