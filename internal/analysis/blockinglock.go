package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// BlockingLock flags program points where a mutex is provably held (the
// must-held CFG analysis forEachUnit solves once per function) across a wait
// that ANOTHER PARTY bounds: a channel send or receive, a blocking select, a
// range over a channel, sync.WaitGroup.Wait, time.Sleep, a net / net/http /
// os/exec call, a call through an io.Reader/io.Writer (or bufio wrapper)
// whose other end is unknown, a Compress/Decompress dispatch, or a call to a
// module-local function whose interprocedural summary blocks for one of
// those reasons (BlockPeer). Holding a lock across any of these turns one
// slow peer into a convoy — every other goroutine contending for the mutex
// waits for the channel/socket/codec, which is exactly the latency coupling
// the serving plane's bulkheads exist to prevent.
//
// Deliberately NOT flagged (BlockLocal): local-disk os / *os.File calls — a
// journal append or manifest write under the lock that orders it is a
// critical section that includes I/O, slow at worst and bounded by this
// machine alone; os.Exit; an io.Writer call into an in-memory hash;
// sync.Cond.Wait, which releases the lock while parked; and a go statement,
// which spawns its operand instead of calling it. Lock acquisition itself is
// not a blocking operation here either: nested short critical sections (a
// registry RLock under a component mutex) are bounded by code this analyzer
// also checks.
var BlockingLock = &Analyzer{
	Name: "blockinglock",
	Doc:  "no mutex may be held across a wait another party bounds: channel operations, network/pipe/subprocess I/O, sync waits, compressor dispatch, or calls that transitively do those",
	Run:  runBlockingLock,
}

func runBlockingLock(pass *Pass) {
	g, sums := pass.Facts.Graph, pass.Facts.Summaries
	forEachUnit(pass, func(u *unitFlow) {
		sites := blockSites{}
		inspectNoFuncLit(u.Body, func(m ast.Node) bool {
			sites.mark(pass.Pkg, m)
			return true
		})
		reported := map[token.Pos]bool{}
		u.walkHeld(func(held set[string], n ast.Node) {
			if len(held) == 0 {
				return
			}
			inspectNoFuncLit(n, func(m ast.Node) bool {
				if why := blockingPoint(pass.Pkg, g, sums, sites, m); why != "" && !reported[m.Pos()] {
					reported[m.Pos()] = true
					pass.Reportf(m.Pos(), "%s held across %s; shrink the critical section so the lock is released before blocking",
						heldKeys(held), why)
				}
				return true
			})
		})
	})
}

// blockingPoint classifies one node as a wait another party bounds,
// returning a human reason ("" when it is not one): the shared classifier
// first, then — for a module-local call — the callee's summary.
func blockingPoint(pkg *Package, g *CallGraph, sums *Summaries, sites blockSites, m ast.Node) string {
	why, kind := sites.classify(pkg, m)
	if kind == BlockPeer {
		return why
	}
	call, ok := m.(*ast.CallExpr)
	if _, marked := sites[m]; kind != 0 || marked || !ok || g == nil || sums == nil {
		return ""
	}
	if _, isLock := classifyLockCall(pkg, call); isLock {
		return "" // the lock's own Lock/Unlock
	}
	for _, e := range g.resolveCall(pkg, call) {
		if sum := sums.Of(e.Callee); sum != nil && sum.BlockKind == BlockPeer {
			return "a call to " + e.Callee.ShortName() + ", which blocks (" + sum.BlockWhy + ")"
		}
	}
	return ""
}

// heldKeys renders the held-lock set for diagnostics ("mu" / "mu and s.mu").
func heldKeys(held set[string]) string {
	keys := slices.Sorted(maps.Keys(held))
	if len(keys) == 1 {
		return keys[0]
	}
	return strings.Join(keys[:len(keys)-1], ", ") + " and " + keys[len(keys)-1]
}
