package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// This file is the generic half of the flow-sensitive layer: one typed forward
// worklist solver over the CFGs built in cfg.go, the generic set type every
// fact domain is built from, the assignment normaliser the transfer functions
// share, reaching definitions, and the per-package memo of function units
// that hands each unit's CFG and must-held-lock solution to the lock
// analyzers. Analyzers define a FlowProblem over their own fact type (entry
// fact, transfer, join) and read the solved per-block facts back;
// path-sensitivity comes from the join: a fact that differs between two
// predecessors merges per the problem's lattice instead of being decided by
// source order.

// FlowProblem is one forward dataflow problem over facts of type F. A block
// the solver has not reached has no fact at all (it is absent from the
// result maps), so F needs no bottom element.
type FlowProblem[F any] interface {
	// EntryFact is the fact at function entry.
	EntryFact() F
	// Transfer applies one statement/expression node. It must treat fact as
	// immutable and return a fresh value when the node changes it.
	Transfer(fact F, n ast.Node) F
	// Join merges facts flowing in from two predecessors (the lattice join:
	// union for may-analyses, intersection for must-analyses).
	Join(a, b F) F
	// Equal reports whether two facts are the same, bounding the fixpoint
	// iteration.
	Equal(a, b F) bool
}

// FlowResult holds the solved facts at the entry and exit of every reached
// block; unreachable blocks have no entry. In[cfg.Exit] is the joined fact at
// function exit (absent when no path reaches the end, e.g. an infinite loop).
type FlowResult[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// Solve runs the worklist algorithm to a fixpoint. Termination is the
// problem's responsibility: Join must be monotone over a finite lattice
// (all the in-tree domains are finite sets of syntactic positions or
// objects).
func Solve[F any](cfg *CFG, p FlowProblem[F]) *FlowResult[F] {
	res := &FlowResult[F]{In: make(map[*Block]F), Out: make(map[*Block]F)}
	res.In[cfg.Entry] = p.EntryFact()

	work := make([]*Block, 0, len(cfg.Blocks))
	queued := make(map[*Block]bool)
	push := func(b *Block) {
		if !queued[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	push(cfg.Entry)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		in := res.In[blk]
		if blk != cfg.Entry {
			reached := false
			for _, pred := range blk.Preds {
				out, ok := res.Out[pred]
				if !ok {
					continue
				}
				if reached {
					in = p.Join(in, out)
				} else {
					in, reached = out, true
				}
			}
			if !reached {
				continue
			}
			res.In[blk] = in
		}
		out := in
		for _, n := range blk.Nodes {
			out = p.Transfer(out, n)
		}
		if old, ok := res.Out[blk]; !ok || !p.Equal(old, out) {
			res.Out[blk] = out
			for _, s := range blk.Succs {
				push(s)
			}
		}
	}
	return res
}

// WalkFacts replays the transfer function over every reachable block,
// calling visit with the fact holding immediately BEFORE each node. This is
// how analyzers inspect program points inside blocks after solving.
func WalkFacts[F any](cfg *CFG, p FlowProblem[F], res *FlowResult[F], visit func(fact F, n ast.Node)) {
	for _, blk := range cfg.Blocks {
		fact, ok := res.In[blk]
		if !ok {
			continue
		}
		for _, n := range blk.Nodes {
			visit(fact, n)
			fact = p.Transfer(fact, n)
		}
	}
}

// ---------------------------------------------------------------------------
// Fact building blocks

// set is the one set type the fact domains are built from. Facts are
// immutable to the solver, so with and without copy on write (and return the
// receiver itself when there is nothing to change). Only true is ever
// stored, which is what lets maps.Equal compare two sets.
type set[K comparable] map[K]bool

func (s set[K]) with(k K) set[K] {
	if s[k] {
		return s
	}
	return mapWith(s, k, true)
}

func (s set[K]) without(k K) set[K] {
	if !s[k] {
		return s
	}
	out := maps.Clone(s)
	delete(out, k)
	return out
}

func (s set[K]) union(t set[K]) set[K] {
	out := make(set[K], len(s)+len(t))
	maps.Copy(out, s)
	maps.Copy(out, t)
	return out
}

func (s set[K]) intersect(t set[K]) set[K] {
	out := make(set[K])
	for k := range s {
		if t[k] {
			out[k] = true
		}
	}
	return out
}

// mapWith returns a copy of m with m[k] = v: the copy-on-write update of the
// map-valued facts (reaching definitions, taint masks).
func mapWith[M ~map[K]V, K comparable, V any](m M, k K, v V) M {
	out := make(M, len(m)+1)
	maps.Copy(out, m)
	out[k] = v
	return out
}

// mayFacts supplies the lattice half of a may-analysis whose fact is a plain
// set: join is union. Problems embed it and add EntryFact and Transfer.
type mayFacts[K comparable] struct{}

func (mayFacts[K]) Join(a, b set[K]) set[K] { return a.union(b) }
func (mayFacts[K]) Equal(a, b set[K]) bool  { return maps.Equal(a, b) }

// binding is one `lhs = rhs` pair of an assignment-like CFG node.
type binding struct {
	Lhs ast.Expr
	// Rhs is the defining expression: the matching operand of a one-to-one
	// assignment, the shared operand of a tuple form (a, b := f(); v, ok :=
	// m[k]; the k, v := range x binding cfg.go synthesizes), and nil for a
	// declaration without an initializer.
	Rhs ast.Expr
	// Index places Lhs among the N left-hand sides sharing Rhs (N is 1 for a
	// one-to-one pair).
	Index, N int
}

// forEachBinding normalises the assignment forms a CFG node can take — an
// AssignStmt or a var declaration, one-to-one or tuple — into bindings, so
// reaching definitions, bufalias and the taint engine share one enumeration
// instead of each walking AssignStmt/DeclStmt/tuple shapes itself. CFG nodes
// are straight-line statements, so only n itself is examined.
func forEachBinding(n ast.Node, visit func(binding)) {
	pair := func(lhs, rhs []ast.Expr) {
		for i, l := range lhs {
			b := binding{Lhs: l, N: 1}
			switch {
			case len(rhs) == len(lhs):
				b.Rhs = rhs[i]
			case len(rhs) == 1:
				b.Rhs, b.Index, b.N = rhs[0], i, len(lhs)
			}
			visit(b)
		}
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		pair(st.Lhs, st.Rhs)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				names := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					names[i] = name
				}
				pair(names, vs.Values)
			}
		}
	}
}

// forEachCallBinding visits every binding in body (nested function literals
// excluded) whose right-hand side is a call to the bare identifier name —
// how the allocation and channel-buffer scans find `x = make(...)` and
// `x = append(x, ...)`.
func forEachCallBinding(body ast.Node, name string, visit func(lhs ast.Expr, call *ast.CallExpr)) {
	inspectNoFuncLit(body, func(m ast.Node) bool {
		forEachBinding(m, func(b binding) {
			if call, ok := ast.Unparen(b.Rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
					visit(b.Lhs, call)
				}
			}
		})
		return true
	})
}

// ---------------------------------------------------------------------------
// Reaching definitions

// Definition is one assignment (or declaration) of a variable that may
// reach a program point.
type Definition struct {
	// Pos locates the defining assignment.
	Pos token.Pos
	// Rhs is the defining expression; nil for definitions with no single
	// expression (var declarations without initializers, ++/--, parameters).
	Rhs ast.Expr
	// Param marks the entry-seeded definition of a parameter, whose value is
	// caller-controlled (unlike a zero-valued var declaration, which also
	// has a nil Rhs).
	Param bool
}

// ReachingDefs is the classic reaching-definitions domain over go/types
// variable objects: at each point, the set of definitions of each local
// variable that may have produced its current value. Assignments to a whole
// variable kill prior definitions (strong update — the object is a single
// variable, not an alias set).
type ReachingDefs struct {
	Info *types.Info
	// Params seed entry definitions (parameters are defined at entry).
	Params []*types.Var
}

// rdFact maps a variable to the set of its possibly-current definitions.
type rdFact map[*types.Var]set[Definition]

func (r *ReachingDefs) EntryFact() rdFact {
	f := rdFact{}
	for _, p := range r.Params {
		f[p] = set[Definition]{{Pos: p.Pos(), Param: true}: true}
	}
	return f
}

func (r *ReachingDefs) Transfer(f rdFact, n ast.Node) rdFact {
	gen := func(lhs ast.Expr, d Definition) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // x.f = ..., x[i] = ...: not a whole-variable def
		}
		if v := r.varOf(id); v != nil {
			f = mapWith(f, v, set[Definition]{d: true})
		}
	}
	forEachBinding(n, func(b binding) {
		gen(b.Lhs, Definition{Pos: b.Lhs.Pos(), Rhs: b.Rhs})
	})
	if st, ok := n.(*ast.IncDecStmt); ok {
		gen(st.X, Definition{Pos: st.Pos()})
	}
	return f
}

func (r *ReachingDefs) varOf(id *ast.Ident) *types.Var {
	if r.Info == nil {
		return nil
	}
	v, _ := r.Info.ObjectOf(id).(*types.Var)
	return v
}

func (r *ReachingDefs) Join(a, b rdFact) rdFact {
	out := maps.Clone(a)
	for v, defs := range b {
		if cur, ok := out[v]; ok {
			defs = cur.union(defs)
		}
		out[v] = defs
	}
	return out
}

func (r *ReachingDefs) Equal(a, b rdFact) bool {
	return maps.EqualFunc(a, b, maps.Equal[set[Definition], set[Definition]])
}

// DefsOf returns the reaching definitions of the variable named by id in
// the given fact (nil when unknown).
func (r *ReachingDefs) DefsOf(fact rdFact, id *ast.Ident) set[Definition] {
	return fact[r.varOf(id)]
}

// ---------------------------------------------------------------------------
// Function units and shared walking helpers

// FuncUnit is one analyzable function body: a declared function/method or a
// function literal. Literals are separate units because their bodies do not
// execute where they appear.
type FuncUnit struct {
	// Name labels diagnostics: the declared name, or "function literal".
	Name string
	// Decl is the enclosing FuncDecl (nil for literals not inside one).
	Decl *ast.FuncDecl
	// Lit is non-nil for function-literal units.
	Lit *ast.FuncLit
	// Body is the unit's block.
	Body *ast.BlockStmt
	// OnceGuard is the rendered receiver of x.Do(unit) when the literal is
	// the argument of a Do call (sync.Once idiom): the unit runs with that
	// guard conceptually held.
	OnceGuard string
}

// funcUnits enumerates every function body in a file: declarations plus all
// nested function literals (each exactly once, tagged with its enclosing
// declaration when there is one).
func funcUnits(f *ast.File) []FuncUnit {
	var units []FuncUnit
	for _, decl := range f.Decls {
		fd, isFunc := decl.(*ast.FuncDecl)
		if isFunc && fd.Body != nil {
			units = append(units, FuncUnit{Name: fd.Name.Name, Decl: fd, Body: fd.Body})
		}
		encl := fd
		if !isFunc {
			encl = nil
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok || lit.Body == nil {
				return true
			}
			name := "function literal"
			if encl != nil {
				name = "function literal in " + encl.Name.Name
			}
			units = append(units, FuncUnit{Name: name, Decl: encl, Lit: lit, Body: lit.Body})
			return true
		})
	}
	// Tag Once.Do-style guarded literals.
	for _, decl := range f.Decls {
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Do" {
				return true
			}
			lit, ok := call.Args[0].(*ast.FuncLit)
			if !ok {
				return true
			}
			for i := range units {
				if units[i].Lit == lit {
					units[i].OnceGuard = exprKey(sel.X)
				}
			}
			return true
		})
	}
	return units
}

// unitFlow is one function unit with the flow structures the three lock
// analyzers share: its CFG and the solved must-held-lock problem.
type unitFlow struct {
	FuncUnit
	CFG  *CFG
	held *heldLocksProblem
	res  *FlowResult[set[string]]
}

// walkHeld visits every node of the unit with the set of locks held on every
// path reaching it.
func (u *unitFlow) walkHeld(visit func(held set[string], n ast.Node)) {
	WalkFacts(u.CFG, u.held, u.res, visit)
}

// forEachUnit visits every function unit of the pass's package. The units —
// CFG and must-held-lock solution included — are built by the first analyzer
// that asks and memoised for the package's other passes (a package's passes
// run on one worker, so the memo needs no lock): lockcheck, threadsafe and
// blockinglock used to rebuild the same CFG and re-solve the same problem
// three times per function.
func forEachUnit(pass *Pass, visit func(u *unitFlow)) {
	if *pass.units == nil {
		units := []*unitFlow{} // non-nil even when empty: nil means "not built yet"
		for _, f := range pass.Pkg.Files {
			for _, unit := range funcUnits(f) {
				cfg := BuildCFG(cfgName(pass.Pkg.Fset, unit), unit.Body)
				held := newHeldLocksProblem(pass.Pkg, unit)
				units = append(units, &unitFlow{unit, cfg, held, Solve(cfg, held)})
			}
		}
		*pass.units = units
	}
	for _, u := range *pass.units {
		visit(u)
	}
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literals: their bodies execute elsewhere, so their statements
// must not leak into the enclosing unit's transfer functions. The FuncLit
// node itself is still visited.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if !f(m) {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return true
	})
}

// exprKey renders an lvalue-ish expression as a stable intra-function key:
// mu -> "mu", p.mu -> "p.mu", global.mu -> "global.mu". Unrenderable
// expressions yield "".
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return exprKey(x.X)
		}
	case *ast.IndexExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "[...]"
	}
	return ""
}

// rootIdent digs the base identifier out of an lvalue-ish expression: x,
// x.f, x[i], x[i:j], (*x).f and &x all root at x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// cfgName labels a unit's CFG for dumps and diagnostics.
func cfgName(fset *token.FileSet, u FuncUnit) string {
	if u.Lit == nil {
		return u.Name
	}
	pos := fset.Position(u.Lit.Pos())
	return fmt.Sprintf("%s at line %d", u.Name, pos.Line)
}
