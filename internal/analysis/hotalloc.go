package analysis

import (
	"go/ast"
)

// HotAlloc is the static counterpart of the benchmark's allocs/op rows:
// it reports allocation sites reachable from //pressio:hotpath-marked
// functions, so a regression that would move the measured rows is visible at
// review time, on every build, without running the benchmark.
//
// The hot set is the static call-graph closure of the marked declarations
// (interface dispatch is not followed — marking the daemon data plane must
// not drag every registered test codec into the hot set; codec kernels carry
// their own marks). Within a hot function two shapes are reported:
//
//   - an allocation site syntactically inside a loop (make, new, append that
//     grows an unmanaged slice, slice/map literals, &T{} literals, closures,
//     []byte/string conversion copies);
//   - a call inside a loop to a module-local function whose summary says it
//     allocates (the chain is printed, so "WriteBits allocates via flushWord"
//     is actionable).
//
// Amortized patterns the measured rows tolerate are exempt: appends that grow a
// receiver-owned buffer (w.buf = append(w.buf, ...)), appends into a local
// visibly made with a capacity, and error construction (cold path by
// convention).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no allocation in loops reachable from //pressio:hotpath functions (static form of the benchmark's allocs/op rows)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	g, sums := pass.Facts.Graph, pass.Facts.Summaries
	if g == nil || sums == nil {
		return
	}
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	closure := g.ReachableStatic(roots)
	for _, node := range g.Nodes {
		if node.Pkg != pass.Pkg || !closure[node] {
			continue
		}
		sum := sums.Of(node)
		if sum == nil {
			continue
		}
		// Own allocation sites in loops.
		for _, site := range sum.OwnAllocs {
			if site.InLoop {
				pass.Reportf(site.Pos, "%s in a loop on a hot path (%s): hoist or preallocate",
					site.What, node.ShortName())
			}
		}
		// In-loop calls to module-local allocating callees. The callee may be
		// outside the hot closure when only reached dynamically; the call
		// site here is what executes hot.
		forEachLoopCall(node, func(call *ast.CallExpr) {
			for _, e := range g.resolveCall(node.Pkg, call) {
				callee := sums.Of(e.Callee)
				if callee == nil || !callee.Allocates {
					continue
				}
				via := callee.AllocWhat
				if callee.AllocVia != "" {
					via += " via " + callee.AllocVia
				}
				pass.Reportf(call.Pos(), "call to %s allocates (%s) in a loop on a hot path (%s)",
					e.Callee.ShortName(), via, node.ShortName())
				return
			}
		})
	}
}

// forEachLoopCall visits every call expression syntactically inside a
// for/range loop of the node's body (not descending into nested literals —
// those are their own nodes), skipping cold-path error-construction
// subtrees.
func forEachLoopCall(n *FuncNode, visit func(*ast.CallExpr)) {
	walkLoopDepth(n.Body, 0, func(m ast.Node, loopDepth int) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isColdPathCall(n.Pkg, x) {
				return false
			}
			if loopDepth > 0 {
				visit(x)
			}
		}
		return true
	})
}
