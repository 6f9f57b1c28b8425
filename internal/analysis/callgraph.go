package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file grows the engine from intra- to interprocedural: a module-local
// call graph over every function body in the analyzed package set, with
// static dispatch resolved through go/types and dynamic (interface) dispatch
// resolved conservatively against the concrete module-local types that
// implement the interface — in particular the registered compressor plugins,
// whose CompressImpl/DecompressImpl methods are reached through the
// core.Compressor wrapper's interface call. Strongly connected components
// (Tarjan) give the bottom-up order the summary computation (summary.go)
// needs; the per-function summaries are then consumed by the worklist solver
// exactly like the intraprocedural facts were.

// FuncNode is one function body in the call graph: a declared function or
// method, or a function literal.
type FuncNode struct {
	// Name labels diagnostics: "pkg.Func", "pkg.(*T).Method", or
	// "pkg.Func$lit" for literals.
	Name string
	// Pkg is the package the body lives in.
	Pkg *Package
	// Decl is the declaration (nil for literals not inside a FuncDecl).
	Decl *ast.FuncDecl
	// Lit is non-nil for function-literal nodes.
	Lit *ast.FuncLit
	// Body is the analyzed block (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Obj is the types object of a declared function (nil for literals).
	Obj *types.Func
	// Calls lists the resolved outgoing edges in deterministic order.
	Calls []*CallEdge
	// Hot marks a `//pressio:hotpath` directive on the declaration.
	Hot bool

	// scc bookkeeping (Tarjan), and the final component id: nodes in the
	// same SCC share an ID, and IDs are a reverse topological order —
	// callees never have a larger ID than their callers outside the SCC.
	index, lowlink int
	onStack        bool
	SCC            int
}

// Pos locates the node's body for diagnostics.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// funcType returns the signature syntax of the node's declaration or literal.
func (n *FuncNode) funcType() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	return n.Lit.Type
}

// CallEdge is one resolved call site: Site is the CallExpr (or GoStmt/
// DeferStmt call), Callee the target node. Dynamic records that the edge
// came from interface-method resolution rather than static dispatch.
type CallEdge struct {
	Site    *ast.CallExpr
	Callee  *FuncNode
	Dynamic bool
	// Go marks the call as the operand of a go statement: the callee runs on
	// another goroutine, so blocking does not propagate to the spawner.
	Go bool
}

// CallGraph is the module-local call graph over one analyzed package set.
type CallGraph struct {
	// Nodes lists every function body in deterministic (package, position)
	// order.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// methodsByName indexes module-local concrete methods for interface
	// resolution: name -> candidate nodes.
	methodsByName map[string][]*FuncNode
}

// NodeOf resolves the node of a declared function object (nil when the body
// is outside the analyzed set — the standard library, bodiless decls).
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj] }

// NodeOfLit resolves the node of a function literal.
func (g *CallGraph) NodeOfLit(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// hotDirective is the comment marking a function as a measured hot path; the
// hotalloc analyzer treats the call-graph closure of marked functions as the
// static counterpart of the benchmark's allocs/op rows.
const hotDirective = "pressio:hotpath"

// hasDirective reports whether a declaration's doc comment carries the given
// //-directive (exact word, optionally followed by explanatory text).
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// BuildCallGraph constructs the call graph over the packages and computes
// SCCs. The graph is deliberately module-local: calls into the standard
// library or other dependencies have no node and are instead classified by
// the curated tables in summary.go.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj:         make(map[*types.Func]*FuncNode),
		byLit:         make(map[*ast.FuncLit]*FuncNode),
		methodsByName: make(map[string][]*FuncNode),
	}
	// Pass 1: create nodes for every body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					node := &FuncNode{
						Name: nodeName(pkg, fd),
						Pkg:  pkg,
						Decl: fd,
						Body: fd.Body,
						Hot:  hasDirective(fd, hotDirective),
					}
					if pkg.Info != nil {
						if obj, k := pkg.Info.Defs[fd.Name].(*types.Func); k {
							node.Obj = obj
							g.byObj[obj] = node
						}
					}
					g.Nodes = append(g.Nodes, node)
					if fd.Recv != nil {
						g.methodsByName[fd.Name.Name] = append(g.methodsByName[fd.Name.Name], node)
					}
				}
				// Function literals anywhere in the declaration (including
				// var initializers) get their own nodes.
				parent := fd
				if !ok {
					parent = nil
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					lit, isLit := n.(*ast.FuncLit)
					if !isLit || lit.Body == nil {
						return true
					}
					name := pkg.Path + ".$lit"
					if parent != nil {
						name = nodeName(pkg, parent) + "$lit"
					}
					node := &FuncNode{Name: name, Pkg: pkg, Lit: lit, Body: lit.Body}
					g.byLit[lit] = node
					g.Nodes = append(g.Nodes, node)
					return true
				})
			}
		}
	}
	// Pass 2: resolve edges.
	for _, node := range g.Nodes {
		g.resolveEdges(node)
	}
	g.computeSCCs()
	return g
}

// nodeName renders "pkg.Func" / "pkg.(*T).Method" labels.
func nodeName(pkg *Package, fd *ast.FuncDecl) string {
	short := pkg.Path
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return short + "." + fd.Name.Name
	}
	recv := ""
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := unwrapRecvIdent(t.X); ok {
			recv = "(*" + id + ")"
		}
	default:
		if id, ok := unwrapRecvIdent(t); ok {
			recv = id
		}
	}
	if recv == "" {
		return short + "." + fd.Name.Name
	}
	return fmt.Sprintf("%s.%s.%s", short, recv, fd.Name.Name)
}

// unwrapRecvIdent digs the receiver type name out of generic receivers like
// T[E] as well as plain identifiers.
func unwrapRecvIdent(e ast.Expr) (string, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.IndexExpr:
		return unwrapRecvIdent(t.X)
	case *ast.IndexListExpr:
		return unwrapRecvIdent(t.X)
	}
	return "", false
}

// resolveEdges walks one body (not descending into nested literals — those
// are their own nodes) and resolves every call site.
func (g *CallGraph) resolveEdges(node *FuncNode) {
	goCalls := map[*ast.CallExpr]bool{}
	inspectNoFuncLit(node.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			goCalls[gs.Call] = true
		}
		return true
	})
	inspectNoFuncLit(node.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, edge := range g.resolveCall(node.Pkg, call) {
			edge.Go = goCalls[call]
			node.Calls = append(node.Calls, edge)
		}
		return true
	})
}

// resolveCall maps one call expression to its possible module-local targets.
// Unresolvable calls (stdlib, function values, unexported indirection) yield
// no edges; summary.go classifies them by name instead.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) []*CallEdge {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: the body runs here.
		if node := g.byLit[lit]; node != nil {
			return []*CallEdge{{Site: call, Callee: node}}
		}
		return nil
	}
	fn := calleeObject(pkg, call)
	if fn == nil {
		return nil // function value: no target — opaque
	}
	if recvIsInterface(fn) {
		return g.interfaceEdges(pkg, call, fn)
	}
	// Generic functions: the Uses object of an instantiated call is the
	// instance; map back to the generic origin, which owns the body.
	if node := g.byObj[fn.Origin()]; node != nil {
		return []*CallEdge{{Site: call, Callee: node}}
	}
	return nil
}

// objectOf is a nil-safe Info.ObjectOf.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// recvIsInterface reports whether a method's receiver is an interface type.
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// interfaceEdges resolves dynamic dispatch: a call to interface method M
// links to every module-local concrete method named M whose receiver type
// implements the interface. This is how the graph sees through the
// compressor registry — core.Compressor.Compress dispatches to the
// CompressImpl of whichever registered plugin was constructed, so every
// registered implementation is a possible callee.
func (g *CallGraph) interfaceEdges(pkg *Package, call *ast.CallExpr, ifaceMethod *types.Func) []*CallEdge {
	sig := ifaceMethod.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	// The method object of a selection through an embedded interface belongs
	// to the interface that declares it: io.ReadCloser's Close is io.Closer's
	// method, and matching candidates against bare io.Closer would link every
	// Close in the module. The static type of the receiver expression is the
	// narrowest interface the callee must satisfy, so prefer it when present.
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && pkg.Info != nil {
		if tv, known := pkg.Info.Types[sel.X]; known && tv.Type != nil {
			if narrow, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				iface = narrow
			}
		}
	}
	var edges []*CallEdge
	for _, cand := range g.methodsByName[ifaceMethod.Name()] {
		if cand.Obj == nil {
			continue
		}
		csig, ok := cand.Obj.Type().(*types.Signature)
		if !ok || csig.Recv() == nil {
			continue
		}
		recv := csig.Recv().Type()
		if types.Implements(recv, iface) || implementsPtr(recv, iface) {
			edges = append(edges, &CallEdge{Site: call, Callee: cand, Dynamic: true})
		}
	}
	return edges
}

// implementsPtr checks *T against the interface when T itself does not
// implement it (pointer-receiver method sets).
func implementsPtr(t types.Type, iface *types.Interface) bool {
	if _, isPtr := t.(*types.Pointer); isPtr {
		return false
	}
	return types.Implements(types.NewPointer(t), iface)
}

// GoEntry resolves the function body a `go` statement starts, when it is
// statically visible: a literal (`go func(){...}()`), a declared function or
// method (`go d.run()`), or a method/function value bound to a local with a
// single visible definition (`f := d.run; go f()`). Returns nil for opaque
// entries.
func (g *CallGraph) GoEntry(pkg *Package, goStmt *ast.GoStmt) *FuncNode {
	return g.callTarget(pkg, goStmt.Call, make(map[*ast.Ident]bool))
}

// callTarget is GoEntry's resolver, reused for plain calls; seen guards
// against cyclic local rebinding.
func (g *CallGraph) callTarget(pkg *Package, call *ast.CallExpr, seen map[*ast.Ident]bool) *FuncNode {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return g.byLit[lit]
	}
	if edges := g.resolveCall(pkg, call); len(edges) == 1 && !edges[0].Dynamic {
		return edges[0].Callee
	}
	// Method value bound to a local: follow a unique visible binding like
	// `f := d.run` within the same function body.
	id, ok := fun.(*ast.Ident)
	if !ok || seen[id] || pkg.Info == nil {
		return nil
	}
	seen[id] = true
	obj := pkg.objectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	var target *FuncNode
	unique := true
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != len(asg.Rhs) {
				return true
			}
			for i, lhs := range asg.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || pkg.objectOf(lid) != v {
					continue
				}
				node := g.valueNode(pkg, asg.Rhs[i])
				if node == nil || (target != nil && target != node) {
					unique = false
					return false
				}
				target = node
			}
			return true
		})
	}
	if !unique {
		return nil
	}
	return target
}

// valueNode resolves a function-valued expression (method value, function
// name, literal) to its node.
func (g *CallGraph) valueNode(pkg *Package, e ast.Expr) *FuncNode {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[x]
	case *ast.Ident:
		if fn, ok := pkg.objectOf(x).(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.objectOf(x.Sel).(*types.Func); ok && !recvIsInterface(fn) {
			return g.byObj[fn]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// SCCs (Tarjan) — the bottom-up order for summary computation.

func (g *CallGraph) computeSCCs() {
	index := 1
	var stack []*FuncNode
	nextSCC := 0
	var strongconnect func(v *FuncNode)
	strongconnect = func(v *FuncNode) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, e := range v.Calls {
			w := e.Callee
			if w.index == 0 {
				strongconnect(w)
				if w.lowlink < v.lowlink {
					v.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < v.lowlink {
				v.lowlink = w.index
			}
		}
		if v.lowlink == v.index {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.SCC = nextSCC
				if w == v {
					break
				}
			}
			nextSCC++
		}
	}
	for _, v := range g.Nodes {
		if v.index == 0 {
			strongconnect(v)
		}
	}
}

// BottomUp returns the nodes ordered callees-first: within the Tarjan
// numbering, a callee's SCC id is never larger than its caller's (outside
// the shared SCC), so ascending SCC order visits leaves before roots.
func (g *CallGraph) BottomUp() []*FuncNode {
	ordered := make([]*FuncNode, len(g.Nodes))
	copy(ordered, g.Nodes)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].SCC < ordered[j].SCC })
	return ordered
}

// Reachable computes the forward closure from the given roots, including the
// roots themselves, following every edge (static, dynamic, go).
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	return g.reachable(roots, true)
}

// ReachableStatic is Reachable restricted to statically dispatched edges:
// interface calls are not followed. Hot-path analyses use this so marking the
// daemon data plane does not smear every registered plugin (including the
// deliberately slow test codecs) into the daemon's hot set.
func (g *CallGraph) ReachableStatic(roots []*FuncNode) map[*FuncNode]bool {
	return g.reachable(roots, false)
}

func (g *CallGraph) reachable(roots []*FuncNode, dynamic bool) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var walk func(n *FuncNode)
	walk = func(n *FuncNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.Calls {
			if e.Dynamic && !dynamic {
				continue
			}
			walk(e.Callee)
		}
		// A literal nested in a node's body is not necessarily called at the
		// nesting site, but for reachability-style analyses (hot paths,
		// request paths) a closure built on a hot path is executed on it in
		// every in-tree idiom (defer/immediate/worker body), so include it.
		inspectNoFuncLit(n.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				walk(g.byLit[lit])
			}
			return true
		})
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}
