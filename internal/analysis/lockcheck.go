package analysis

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// LockCheck verifies the lock-pairing half of the thread-safety contract
// path-sensitively: every mu.Lock() / mu.RLock() must be matched by the
// corresponding Unlock on ALL paths out of the function. The old syntactic
// threadsafe scan only asked "is there a lock earlier in the source"; a
// missing Unlock hidden behind one branch (an early return inside the
// critical section) sailed through it. LockCheck builds the function's CFG,
// runs a may-analysis whose facts are the set of still-unreleased
// acquisition sites, and reports any acquisition that reaches the exit
// block. A `defer mu.Unlock()` (direct or inside a deferred closure)
// releases on every path by construction and is the preferred fix.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "every Lock/RLock must be paired with an Unlock/RUnlock on all paths out of the function",
	Run:  runLockCheck,
}

// lockOp classifies one mutex call site.
type lockOp struct {
	key     string // rendered receiver, e.g. "mu", "p.mu", "global.mu"
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock vs Unlock/RUnlock
}

// classifyLockCall recognizes <recv>.Lock/Unlock/RLock/RUnlock() calls on
// mutex-like receivers. The receiver must render to a stable key and (when
// type information is available) have a mutex-like type, so unrelated
// Lock methods (e.g. a file-locking API) are left alone.
func classifyLockCall(pkg *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = lockOp{acquire: true}
	case "Unlock":
		op = lockOp{}
	case "RLock":
		op = lockOp{read: true, acquire: true}
	case "RUnlock":
		op = lockOp{read: true}
	default:
		return lockOp{}, false
	}
	op.key = exprKey(sel.X)
	if op.key == "" {
		return lockOp{}, false
	}
	if !mutexLikeRecv(pkg, sel.X) {
		return lockOp{}, false
	}
	return op, true
}

// mutexLikeRecv reports whether the expression's static type looks like a
// lock (sync.Mutex, sync.RWMutex, sync.Locker, or any type whose name ends
// in Mutex or Locker — fixtures model the API locally). Without type
// information it answers true: the method-name filter already did the
// heavy lifting.
func mutexLikeRecv(pkg *Package, e ast.Expr) bool {
	if pkg.Info == nil {
		return true
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return strings.HasSuffix(name, "Mutex") || strings.HasSuffix(name, "Locker") || name == "Once"
}

// ---------------------------------------------------------------------------
// May-unreleased analysis (lockcheck)

// acqSite is one acquisition that has not (yet) been released.
type acqSite struct {
	key  string
	read bool
	pos  token.Pos
}

// lockPairFact is the may-analysis fact: acquisitions possibly still held,
// plus the lock keys for which a deferred release is registered (a later
// Lock of such a key is already paired).
type lockPairFact struct {
	pending  set[acqSite]
	deferred set[string] // key + "/r" marker for read locks
}

func deferKey(key string, read bool) string {
	if read {
		return key + "/r"
	}
	return key
}

type lockPairProblem struct {
	pkg *Package
}

func (p *lockPairProblem) EntryFact() lockPairFact {
	return lockPairFact{pending: set[acqSite]{}, deferred: set[string]{}}
}

func (p *lockPairProblem) Transfer(f lockPairFact, n ast.Node) lockPairFact {
	release := func(key string, read bool) {
		for site := range f.pending {
			if site.key == key && site.read == read {
				f.pending = f.pending.without(site)
			}
		}
	}
	if def, ok := n.(*ast.DeferStmt); ok {
		// defer mu.Unlock() — or a deferred closure that unlocks — releases
		// on every path out of the function.
		for _, op := range deferredReleases(p.pkg, def) {
			release(op.key, op.read)
			f.deferred = f.deferred.with(deferKey(op.key, op.read))
		}
		return f
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := classifyLockCall(p.pkg, call)
		if !ok {
			return true
		}
		switch {
		case !op.acquire:
			release(op.key, op.read)
		case f.deferred[deferKey(op.key, op.read)]:
			// already paired by a registered deferred release
		default:
			f.pending = f.pending.with(acqSite{key: op.key, read: op.read, pos: call.Pos()})
		}
		return true
	})
	return f
}

// deferredReleases lists the unlock operations a defer statement registers:
// the direct `defer mu.Unlock()` form and unlocks inside `defer func(){...}()`.
func deferredReleases(pkg *Package, def *ast.DeferStmt) []lockOp {
	var ops []lockOp
	if op, ok := classifyLockCall(pkg, def.Call); ok && !op.acquire {
		ops = append(ops, op)
	}
	if lit, ok := def.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if op, ok := classifyLockCall(pkg, call); ok && !op.acquire {
					ops = append(ops, op)
				}
			}
			return true
		})
	}
	return ops
}

func (p *lockPairProblem) Join(a, b lockPairFact) lockPairFact {
	return lockPairFact{pending: a.pending.union(b.pending), deferred: a.deferred.union(b.deferred)}
}

func (p *lockPairProblem) Equal(a, b lockPairFact) bool {
	return maps.Equal(a.pending, b.pending) && maps.Equal(a.deferred, b.deferred)
}

func runLockCheck(pass *Pass) {
	forEachUnit(pass, func(u *unitFlow) {
		leaks, ok := Solve(u.CFG, &lockPairProblem{pkg: pass.Pkg}).In[u.CFG.Exit]
		if !ok {
			return // no path reaches the end (e.g. infinite loop)
		}
		sites := slices.SortedFunc(maps.Keys(leaks.pending), func(a, b acqSite) int { return cmp.Compare(a.pos, b.pos) })
		for _, site := range sites {
			lockName, unlockName := "Lock", "Unlock"
			if site.read {
				lockName, unlockName = "RLock", "RUnlock"
			}
			pass.Reportf(site.pos,
				"%s.%s() is not released on every path out of %s: add the missing %s or prefer defer %s.%s()",
				site.key, lockName, u.CFG.Name, unlockName, site.key, unlockName)
		}
	})
}

// ---------------------------------------------------------------------------
// Must-held analysis (solved once per unit by forEachUnit, read by the
// threadsafe and blockinglock analyzers)

// heldLocksProblem is the must-analysis: its fact is the set of lock keys
// held on EVERY path reaching a point, so Join is set intersection.
type heldLocksProblem struct {
	pkg   *Package
	entry set[string]
}

// newHeldLocksProblem prepares the must-held problem for one unit. A
// function literal passed to x.Do(...) starts with the Once guard held —
// the runtime serializes it.
func newHeldLocksProblem(pkg *Package, unit FuncUnit) *heldLocksProblem {
	entry := set[string]{}
	if unit.OnceGuard != "" {
		entry[unit.OnceGuard] = true
	}
	return &heldLocksProblem{pkg: pkg, entry: entry}
}

func (p *heldLocksProblem) EntryFact() set[string] { return p.entry }

func (p *heldLocksProblem) Transfer(f set[string], n ast.Node) set[string] {
	if _, ok := n.(*ast.DeferStmt); ok {
		return f // a deferred Unlock releases at exit; the lock stays held here
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := classifyLockCall(p.pkg, call); ok && op.acquire {
			f = f.with(op.key)
		} else if ok {
			f = f.without(op.key)
		}
		return true
	})
	return f
}

func (p *heldLocksProblem) Join(a, b set[string]) set[string] { return a.intersect(b) }
func (p *heldLocksProblem) Equal(a, b set[string]) bool       { return maps.Equal(a, b) }
