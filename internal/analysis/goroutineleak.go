package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeak flags go statements whose spawned body can block forever
// with no cancellation path. The serving plane leaks goroutines exactly this
// way: a worker parked on a channel nobody closes, a send to a receiver that
// returned early, an accept loop on a listener nothing shuts down. The check
// is interprocedural — the spawned function's transitive (static) closure is
// scanned for blocking hazards and for release mechanisms:
//
//   - a context reaching the body (cancel releases it),
//   - a channel receive anywhere in the closure (close releases it — this
//     also covers range-over-channel workers and select loops with a done
//     case),
//   - sends that only target channels visibly made with nonzero capacity in
//     the spawning or spawned scope (the buffered watchdog idiom: the send
//     completes even when the receiver is gone),
//   - a WaitGroup Done in the body (the worker-pool join idiom — a stuck
//     body stalls the Wait visibly instead of leaking silently).
//
// Hazards with none of those are reported at the go statement. Deliberately
// process-lifetime goroutines (an HTTP serve loop whose listener is closed
// by a shutdown path the analyzer cannot see) are waived with //lint:ignore.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "goroutines that can block forever with no context, close-able channel, or buffered send to release them",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) {
	g, sums := pass.Facts.Graph, pass.Facts.Summaries
	if g == nil || sums == nil {
		return
	}
	for _, node := range g.Nodes {
		if node.Pkg != pass.Pkg {
			continue
		}
		spawnerBuf := bufferedChanKeys(node.Body)
		inspectNoFuncLit(node.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			entry := g.GoEntry(pass.Pkg, gs)
			if entry == nil {
				return true // opaque entry (function value from elsewhere)
			}
			closure := spawnClosure(g, entry)
			why, hazard := closureHazard(closure, sums, spawnerBuf)
			if !hazard {
				return true
			}
			if closureCancellable(closure, sums) {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine %s may block forever (%s) and nothing can release it: thread a context through it, receive on a channel a caller closes, or join it",
				entry.ShortName(), why)
			return true
		})
	}
}

// spawnClosure is the set of bodies the spawned goroutine can run: the entry
// plus its static (non-interface, non-go) call closure and nested literals.
// Dynamic edges are excluded for the same reason BlocksForever excludes them
// — one slow interface implementation must not condemn every spawn site that
// dispatches through the interface.
func spawnClosure(g *CallGraph, entry *FuncNode) []*FuncNode {
	seen := map[*FuncNode]bool{}
	var order []*FuncNode
	var walk func(n *FuncNode)
	walk = func(n *FuncNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		for _, e := range n.Calls {
			if e.Dynamic || e.Go {
				continue
			}
			walk(e.Callee)
		}
		inspectNoFuncLit(n.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				walk(g.NodeOfLit(lit))
			}
			return true
		})
	}
	walk(entry)
	return order
}

// closureHazard scans the closure bodies for constructs that can park the
// goroutine forever. Receives are NOT hazards here (close releases them);
// they are counted as cancellation evidence instead.
func closureHazard(closure []*FuncNode, sums *Summaries, spawnerBuf map[string]bool) (string, bool) {
	buffered := map[string]bool{}
	for k := range spawnerBuf {
		buffered[k] = true
	}
	for _, n := range closure {
		for k := range bufferedChanKeys(n.Body) {
			buffered[k] = true
		}
	}
	for _, n := range closure {
		var why string
		inspectNoFuncLit(n.Body, func(m ast.Node) bool {
			if why != "" {
				return false
			}
			switch x := m.(type) {
			case *ast.SendStmt:
				if !buffered[exprKey(x.Chan)] {
					why = "sends on an unbuffered or unknown channel"
				}
			case *ast.SelectStmt:
				// A select whose comms are all sends (no default) can park
				// forever; one with a receive case is release-able by close
				// and one with default never parks.
				hasRecv := false
				for _, c := range x.Body.List {
					if cc := c.(*ast.CommClause); cc.Comm != nil && commIsReceive(cc.Comm) {
						hasRecv = true
					}
				}
				if !selectHasDefault(x) && !hasRecv {
					why = "selects over sends only"
				}
			case *ast.CallExpr:
				if reason, _, forever := stdlibBlocking(n.Pkg, x); forever {
					why = reason
				}
			}
			return true
		})
		if why != "" {
			return n.ShortName() + " " + why, true
		}
	}
	return "", false
}

// closureCancellable reports whether anything in the closure gives a caller
// a handle to release or observe the goroutine: a context in scope, a
// channel receive (close-able), or a WaitGroup Done (the spawner joins it —
// a stuck body then stalls the join visibly instead of leaking silently).
func closureCancellable(closure []*FuncNode, sums *Summaries) bool {
	for _, n := range closure {
		if sum := sums.Of(n); sum != nil && (sum.HasCtxParam || sum.UsesCtx) {
			return true
		}
		found := false
		inspectNoFuncLit(n.Body, func(m ast.Node) bool {
			if found {
				return false
			}
			switch x := m.(type) {
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					found = true
				}
			case *ast.RangeStmt:
				// range over a channel terminates on close; checking the
				// operand type is unnecessary — ranging anything else is not
				// a blocking hazard in the first place.
				if rangesOverChan(n.Pkg, x) {
					found = true
				}
			case *ast.CallExpr:
				if isWaitGroupDone(n.Pkg, x) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isWaitGroupDone matches wg.Done() on a sync.WaitGroup-like receiver. With
// type information the receiver type must be named WaitGroup; without it
// (fixtures) the receiver name must contain "wg" so ctx.Done() never
// matches.
func isWaitGroupDone(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	if pkg.Info == nil {
		return strings.Contains(strings.ToLower(exprKey(sel.X)), "wg")
	}
	obj := namedType(pkg, sel.X)
	return obj != nil && obj.Name() == "WaitGroup"
}

// commIsReceive reports whether a select comm statement is a receive.
func commIsReceive(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(x.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(x.Rhs) != 1 {
			return false
		}
		u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// rangesOverChan reports whether a range statement iterates a channel.
func rangesOverChan(pkg *Package, r *ast.RangeStmt) bool {
	if pkg.Info == nil {
		return false
	}
	tv, ok := pkg.Info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// bufferedChanKeys collects the exprKeys of locals bound to make(chan T, n)
// with a literal nonzero capacity in the body: sends to those channels
// complete without a receiver (up to the buffer), the watchdog idiom.
func bufferedChanKeys(body *ast.BlockStmt) map[string]bool {
	keys := map[string]bool{}
	if body == nil {
		return keys
	}
	forEachCallBinding(body, "make", func(lhs ast.Expr, call *ast.CallExpr) {
		if len(call.Args) != 2 {
			return
		}
		if _, isChan := call.Args[0].(*ast.ChanType); !isChan {
			return
		}
		lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit)
		if !ok || lit.Kind != token.INT || lit.Value == "0" {
			return
		}
		if k := exprKey(lhs); k != "" {
			keys[k] = true
		}
	})
	return keys
}
