package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// This file is the interprocedural taint engine behind the untrustedalloc,
// untrustedloop and untrustedindex analyzers: the static counterpart of the
// PR-4 fuzzing campaign. Taint sources are decode-side inputs — the
// Decompress/DecompressImpl/DecompressSlice byte stream, values pulled
// through the bitstream/rangecoder readers, HTTP request bodies, file reads.
// Taint flows through assignments, arithmetic, struct and slice flow, and
// call edges (per-function result masks composed at call sites, fixpoint
// over the call graph's SCCs like the Allocates summary), and is killed by
// recognized sanitizers — comparisons against caps, min-style clamps,
// len-derived bounds. A comparison is a fact on the CFG edge where it holds:
// the solver's Branch hook adds the guarded key to the path's must-set of
// bounded (or strictly positive) keys, an assignment to the key removes it,
// and a join keeps it only where every incoming path carries it or has the
// key's root clean. Sinks are the three shapes fuzzing found:
// allocation sizes (the bomb), loop bounds and loop-carried steps (the
// spin), and slice indexes (the panic).

// Taint masks are bitsets: bit i marks "derived from parameter i" (the
// receiver is parameter 0 of a method, so header fields flow through
// accessor helpers), and the top bit marks "derived from an unconditional
// source" — a stream read, an HTTP body, a file read.
const (
	taintSourceBit uint64 = 1 << 63
	maxTaintParams        = 63
)

// taintParamBit returns the mask bit of parameter i; parameters beyond the
// representable range share the last bit (conservative).
func taintParamBit(i int) uint64 {
	if i >= maxTaintParams {
		i = maxTaintParams - 1
	}
	return 1 << uint(i)
}

// TaintKind classifies a sink.
type TaintKind int

const (
	// TaintAlloc: a tainted value sizes an allocation (make, Buffer.Grow).
	TaintAlloc TaintKind = iota
	// TaintLoop: a tainted value bounds a loop or feeds a loop-carried step.
	TaintLoop
	// TaintIndex: a tainted value indexes a slice or array.
	TaintIndex
)

// taintSinks is the sink table: one row per kind, each surfaced as its own
// analyzer ("untrusted" + name) so findings are selected and waived by shape.
var taintSinks = [...]struct{ name, doc string }{
	// The decompression-bomb shape the PR-4 fuzzing found in fpzip: a value
	// derived from the untrusted input stream reaches an allocation size
	// (make length/capacity, bytes.Buffer.Grow) with no dominating bound
	// check. A declared shape of 2^40 elements must be rejected against a cap
	// derived from a constant, an option, or the actual input length — before
	// the allocator commits the memory.
	TaintAlloc: {"alloc", "allocation sized by untrusted input without a dominating bound check (decompression bomb)"},
	// The unbounded-spin shape found in zfp's fixed-rate padding loop: a loop
	// whose bound is stream-derived with no dominating cap, or a loop-carried
	// step that is stream-derived and can be zero (never progressing). Either
	// way an adversarial header turns a decode into a CPU hostage.
	TaintLoop: {"loop", "loop bound or step controlled by untrusted input without a cap (unbounded spin)"},
	// The wild-indexing panic shape found in delta_encoding: a slice or array
	// index derived from the stream (or an induction variable bounded only by
	// one) with no dominating length check. Out-of-range declared dims must
	// be compared against the actual decoded length before element access.
	TaintIndex: {"index", "slice index derived from untrusted input without a dominating length check (panic)"},
}

func (k TaintKind) String() string { return taintSinks[k].name }

// UntrustedAlloc, UntrustedLoop and UntrustedIndex are the three front-ends
// of the taint engine.
var UntrustedAlloc, UntrustedLoop, UntrustedIndex = untrustedAnalyzer(TaintAlloc), untrustedAnalyzer(TaintLoop), untrustedAnalyzer(TaintIndex)

func untrustedAnalyzer(kind TaintKind) *Analyzer {
	return &Analyzer{
		Name: "untrusted" + kind.String(),
		Doc:  taintSinks[kind].doc,
		Run:  func(pass *Pass) { pass.Facts.Taint.reportKind(pass, kind) },
	}
}

// TaintSink is one recorded sink inside a function body: a program point
// where a possibly-tainted value does something dangerous. Whether it is
// reported depends on the root propagation: the mask must carry the source
// bit or a parameter bit that is runtime-tainted in some calling context.
type TaintSink struct {
	Kind TaintKind
	Pos  token.Pos
	// What names the dangerous use ("make size", "loop bound", ...).
	What string
	// Expr renders the tainted expression for the message.
	Expr string
	// Mask is the taint mask of the value at the sink.
	Mask uint64
	// Fix names the missing sanitizer ("cap it against a constant or
	// config-derived limit before allocating").
	Fix string
}

// taintCall records one resolved call site with the taint masks of its
// arguments (receiver first for methods), for the top-down root propagation.
type taintCall struct {
	callee   *FuncNode
	pos      token.Pos
	argMasks []uint64
}

// taintNode is the per-function result of the bottom-up analysis.
type taintNode struct {
	// out[i] is the taint mask of result i, expressed over the node's own
	// parameter bits plus the source bit.
	out []uint64
	// sinks are the dangerous uses observed in the body.
	sinks []TaintSink
	// calls are the resolved module-local call sites with argument masks.
	calls []taintCall
	// params are the parameter objects in bit order (receiver first; nil
	// entries for unnamed parameters).
	params []*types.Var
	// rooted is the set of parameter bits that carry untrusted data in some
	// reachable calling context (set by the top-down propagation).
	rooted uint64
	// rootWhy explains the first rooting ("decode entry", "tainted argument
	// from fpzip.DecompressSlice").
	rootWhy string
}

// TaintInfo is the module-wide taint computation, stored in Facts.Taint.
type TaintInfo struct {
	Graph *CallGraph
	nodes map[*FuncNode]*taintNode
}

// untrustedDirective roots every parameter of the annotated function, for
// entry points the name-based root heuristic cannot see.
const untrustedDirective = "pressio:untrusted"

// decodeEntryNames are the decode-side entry points whose []byte parameters
// are rooted unconditionally: any registered codec can be handed any stream.
var decodeEntryNames = map[string]bool{
	"Decompress": true, "DecompressImpl": true, "DecompressSlice": true,
}

// untrustedReaderPkgs marks packages whose reader methods yield stream-
// derived values even when the receiver's provenance is not visible (a
// reader stored in a decoder struct field, fed by another method).
var untrustedReaderPkgs = map[string]bool{"bitstream": true, "rangecoder": true}

// boundedMethodNames return sizes of in-memory state the runtime already
// bounds: treating them as untainted is what makes len-derived bounds a
// sanitizer (`dec.Len()`, `buf.Cap()`). Dims is included because the only
// Dims accessors in the module are on core.Data, whose checked
// constructors (NewMove, NewBytes) pin the dims product to the backing
// buffer's length before a Data can exist.
var boundedMethodNames = map[string]bool{"Len": true, "Size": true, "Cap": true, "Dims": true}

// checkedShapeFuncs are the two functions of internal/core's shape prelude
// that hand back extents they did not bound themselves: both pass them to
// CheckedElems, which compares every extent and the running product against
// the caller's cap, and return nothing unless it accepts. A guard inside a
// callee is invisible to the caller's guard facts, so naming the pair
// is what lets a decoder keep no parse loop of its own. (CheckedElems,
// ReadRank, ReadShape and ReadFloatShape need no entry: their results come
// out clean by the ordinary rules.)
var checkedShapeFuncs = map[string]bool{"Geometry": true, "ReadExtents": true}

// sourceFuncs are calls whose results are untrusted bytes in the I/O-plane
// packages (internal/pio, internal/h5lite), where file contents are the
// attacker-controllable stream. Elsewhere (CLI clients, tools) a file read
// is operator input, and treating it as hostile would root the entire
// compress side through the clients.
var sourceFuncs = map[string]bool{
	"os.ReadFile": true, "io.ReadAll": true, "io/ioutil.ReadFile": true,
}

// sourcePkgSuffixes limit sourceFuncs to the I/O-plane packages.
var sourcePkgSuffixes = []string{"/pio", "/h5lite"}

func pkgReadsUntrustedFiles(path string) bool {
	for _, suf := range sourcePkgSuffixes {
		if strings.HasSuffix(path, suf) || strings.Contains(path, suf+"/") {
			return true
		}
	}
	return false
}

// ComputeTaint runs the bottom-up mask computation to a fixpoint over the
// SCC order, then the top-down root propagation.
func ComputeTaint(g *CallGraph) *TaintInfo {
	ti := &TaintInfo{Graph: g, nodes: make(map[*FuncNode]*taintNode, len(g.Nodes))}
	order := g.BottomUp()
	for _, n := range order {
		ti.nodes[n] = &taintNode{}
	}
	// Bottom-up fixpoint: a node's masks depend on its callees' result masks,
	// which are complete after one pass on a DAG; SCC cycles converge because
	// masks only grow.
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			fresh := ti.analyze(n)
			if !slices.Equal(fresh.out, ti.nodes[n].out) {
				changed = true
			}
			fresh.rooted, fresh.rootWhy = ti.nodes[n].rooted, ti.nodes[n].rootWhy
			ti.nodes[n] = fresh
		}
	}
	ti.propagateRoots()
	return ti
}

// runtimeTainted reports whether a mask carries untrusted data in node's
// calling contexts: the source bit always does, a parameter bit only when
// the top-down propagation rooted it.
func (ti *TaintInfo) runtimeTainted(mask uint64, n *taintNode) bool {
	return mask&taintSourceBit != 0 || mask&n.rooted != 0
}

// propagateRoots seeds the entry points and pushes runtime taint forward
// through the recorded call-argument masks until fixpoint.
func (ti *TaintInfo) propagateRoots() {
	var work []*FuncNode
	pushRoot := func(n *FuncNode, bits uint64, why string) {
		tn := ti.nodes[n]
		if tn == nil || bits&^tn.rooted == 0 {
			return
		}
		tn.rooted |= bits
		if tn.rootWhy == "" {
			tn.rootWhy = why
		}
		work = append(work, n)
	}
	for _, n := range ti.Graph.Nodes {
		tn := ti.nodes[n]
		if tn == nil {
			continue
		}
		name := ""
		if n.Decl != nil {
			name = n.Decl.Name.Name
		}
		if decodeEntryNames[name] {
			var bits uint64
			for i, p := range tn.params {
				if p != nil && isByteSlice(p.Type()) {
					bits |= taintParamBit(i)
				}
			}
			pushRoot(n, bits, "decode entry "+n.ShortName())
		}
		if n.Decl != nil && hasDirective(n.Decl, untrustedDirective) {
			var bits uint64
			for i := range tn.params {
				bits |= taintParamBit(i)
			}
			pushRoot(n, bits, "//pressio:untrusted on "+n.ShortName())
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		tn := ti.nodes[n]
		for _, c := range tn.calls {
			callee := ti.nodes[c.callee]
			if callee == nil {
				continue
			}
			var bits uint64
			for i, m := range c.argMasks {
				if ti.runtimeTainted(m, tn) {
					bits |= taintParamBit(i)
				}
			}
			pushRoot(c.callee, bits, "tainted argument from "+n.ShortName())
		}
	}
}

// reportKind is the shared reporting path of the three analyzers: every sink
// of the kind in the pass's package whose mask is runtime-tainted becomes a
// diagnostic naming the value, its origin, and the missing check.
func (ti *TaintInfo) reportKind(pass *Pass, kind TaintKind) {
	if ti == nil {
		return
	}
	for _, n := range ti.Graph.Nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		tn := ti.nodes[n]
		if tn == nil {
			continue
		}
		for _, sink := range tn.sinks {
			if sink.Kind != kind || !ti.runtimeTainted(sink.Mask, tn) {
				continue
			}
			pass.Reportf(sink.Pos, "%s %q is %s; %s", sink.What, sink.Expr, ti.origin(sink.Mask, tn), sink.Fix)
		}
	}
}

// origin renders where the taint came from for the diagnostic.
func (ti *TaintInfo) origin(mask uint64, tn *taintNode) string {
	if mask&taintSourceBit != 0 {
		return "derived from untrusted input (stream/file/body read)"
	}
	for i, p := range tn.params {
		if mask&taintParamBit(i) != 0 && mask&tn.rooted&taintParamBit(i) != 0 {
			name := "parameter"
			if p != nil {
				name = "parameter " + p.Name()
			}
			return fmt.Sprintf("derived from %s (%s)", name, tn.rootWhy)
		}
	}
	return "derived from untrusted input"
}

// ---------------------------------------------------------------------------
// Per-function analysis.

// taintFact is the taint engine's dataflow fact at one program point.
type taintFact struct {
	// masks maps variable objects to taint masks (may: union at joins);
	// absent means untainted.
	masks map[types.Object]uint64
	// bounded and positive are the must-sets of keys a guard on every path
	// has bounded above by a clean cap, or proved strictly positive.
	bounded, positive set[guardKey]
	// dead marks a path that ended in a panic: joins ignore it.
	dead bool
}

// guardKey names a guarded expression: its rendered path ("n", "h.n") and
// the variable it is rooted at, so shadowed names stay apart.
type guardKey struct {
	root types.Object
	path string
}

// withoutRelated drops k and every key related to it: assigning h says
// nothing about an old guard on h.n, and vice versa.
func withoutRelated(s set[guardKey], k guardKey) set[guardKey] {
	for g := range s {
		if g.root == k.root && relatedKeys(g.path, k.path) {
			s = s.without(g)
		}
	}
	return s
}

// joinGuards keeps a key when each incoming path either carries it or has
// the key's root untainted: a path that never tainted the value needs no
// guard, which is what credits the accumulate-and-check loop (the zero total
// entering the loop, the checked total coming round the back edge). A set
// only holds keys whose root is tainted on its own path (Branch adds no
// other), so each side's keys need checking against the other side alone.
func joinGuards(a, b taintFact, ga, gb set[guardKey]) set[guardKey] {
	if len(ga)+len(gb) == 0 {
		return nil // most facts carry no guard
	}
	out := set[guardKey]{}
	for k := range ga {
		if gb[k] || b.masks[k.root] == 0 {
			out[k] = true
		}
	}
	for k := range gb {
		if a.masks[k.root] == 0 {
			out[k] = true
		}
	}
	return out
}

// taintProblem is the FlowProblem plus the syntactic context (loop
// structure, range rewrites) the evaluator consults.
type taintProblem struct {
	ti   *TaintInfo
	node *FuncNode
	pkg  *Package

	entry map[types.Object]uint64
	// rangeX maps the synthesized range-binding AssignStmt to true (its Rhs
	// is the original range operand, recognized by pointer identity).
	rangeX map[ast.Expr]bool
	// edgesBySite groups the node's resolved call edges by call expression.
	edgesBySite map[*ast.CallExpr][]*CallEdge
	// forConds maps a ForStmt cond expression to its statement.
	forConds map[ast.Expr]*ast.ForStmt
	// loops lists enclosing-loop records for step/bound checks.
	loops []loopRec
	// results are the declared result variables (nil when unnamed).
	results    []*types.Var
	resultErrs []bool
}

// loopRec describes one for-loop for the step and bound-index rules.
type loopRec struct {
	stmt *ast.ForStmt
	// condVars are the loop-condition variables (progress depends on them).
	condVars map[types.Object]bool
	// boundOf maps an induction variable initialized in Init and compared
	// with < / <= in Cond to the bounding expression.
	boundOf map[types.Object]ast.Expr
}

// analyze computes one node's taintNode from scratch (masks over its own
// parameters, sinks, call records).
func (ti *TaintInfo) analyze(n *FuncNode) *taintNode {
	tn := &taintNode{}
	p := &taintProblem{
		ti:          ti,
		node:        n,
		pkg:         n.Pkg,
		entry:       map[types.Object]uint64{},
		rangeX:      map[ast.Expr]bool{},
		edgesBySite: map[*ast.CallExpr][]*CallEdge{},
		forConds:    map[ast.Expr]*ast.ForStmt{},
	}
	for _, e := range n.Calls {
		p.edgesBySite[e.Site] = append(p.edgesBySite[e.Site], e)
	}
	tn.params = p.collectParams()
	for i, v := range tn.params {
		if v != nil {
			p.entry[v] = taintParamBit(i)
		}
	}
	p.collectResults()
	p.collectLoops()
	tn.out = make([]uint64, len(p.results))

	cfg := BuildCFG(n.Name, n.Body)
	res := Solve(cfg, p)
	seenSink := map[string]bool{}
	seenCall := map[*ast.CallExpr]bool{}
	WalkFacts(cfg, p, res, func(f taintFact, node ast.Node) {
		p.scanSinks(f, node, tn, seenSink)
		p.scanCalls(f, node, tn, seenCall)
		if ret, ok := node.(*ast.ReturnStmt); ok {
			p.recordReturn(f, ret, tn)
		}
	})
	return tn
}

// collectParams lists the parameter objects in bit order: receiver first for
// methods, then the declared value parameters.
func (p *taintProblem) collectParams() []*types.Var {
	var params []*types.Var
	addField := func(field *ast.Field) {
		if len(field.Names) == 0 {
			params = append(params, nil)
			return
		}
		for _, name := range field.Names {
			v, _ := p.pkg.objectOf(name).(*types.Var)
			params = append(params, v)
		}
	}
	if p.node.Decl != nil && p.node.Decl.Recv != nil {
		for _, field := range p.node.Decl.Recv.List {
			addField(field)
		}
	}
	if ft := p.node.funcType(); ft.Params != nil {
		for _, field := range ft.Params.List {
			addField(field)
		}
	}
	return params
}

// collectResults records the result slots: named objects for bare returns,
// and which slots are error-typed (errors carry no data taint).
func (p *taintProblem) collectResults() {
	ft := p.node.funcType()
	if ft.Results == nil {
		return
	}
	for _, field := range ft.Results.List {
		isErr := false
		if p.pkg.Info != nil {
			if tv, ok := p.pkg.Info.Types[field.Type]; ok && tv.Type != nil {
				isErr = isErrorType(tv.Type)
			}
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			var v *types.Var
			if i < len(field.Names) {
				v, _ = p.pkg.objectOf(field.Names[i]).(*types.Var)
			}
			p.results = append(p.results, v)
			p.resultErrs = append(p.resultErrs, isErr)
		}
	}
}

// collectLoops indexes the body's for loops: cond variables (for the step
// rule), induction bounds (for the bounded-index rule), and registers cond
// expressions so the sink scan recognizes them. Range operands are recorded
// so the synthesized range binding is recognized by its Rhs, which is the
// original operand by pointer identity.
func (p *taintProblem) collectLoops() {
	inspectNoFuncLit(p.node.Body, func(m ast.Node) bool {
		if rs, ok := m.(*ast.RangeStmt); ok {
			p.rangeX[rs.X] = true
		}
		fs, ok := m.(*ast.ForStmt)
		if !ok || fs.Cond == nil {
			return true
		}
		p.forConds[fs.Cond] = fs
		rec := loopRec{stmt: fs, condVars: map[types.Object]bool{}, boundOf: map[types.Object]ast.Expr{}}
		ast.Inspect(fs.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if obj := p.pkg.objectOf(id); obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						rec.condVars[obj] = true
					}
				}
			}
			return true
		})
		// Induction bound: for i := lo; i < E; ... -> boundOf[i] = E.
		if cmp, ok := fs.Cond.(*ast.BinaryExpr); ok && (cmp.Op == token.LSS || cmp.Op == token.LEQ) {
			if id, ok := ast.Unparen(cmp.X).(*ast.Ident); ok {
				if obj := p.pkg.objectOf(id); obj != nil && initializes(p.pkg, fs.Init, obj) {
					rec.boundOf[obj] = cmp.Y
				}
			}
		}
		p.loops = append(p.loops, rec)
		return true
	})
}

// initializes reports whether init assigns the object (i := lo / i = lo).
func initializes(pkg *Package, init ast.Stmt, obj types.Object) bool {
	asg, ok := init.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range asg.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && pkg.objectOf(id) == obj {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// FlowProblem implementation.

func (p *taintProblem) EntryFact() taintFact { return taintFact{masks: p.entry} }

func (p *taintProblem) Join(a, b taintFact) taintFact {
	if a.dead {
		return b
	}
	if b.dead {
		return a
	}
	out := taintFact{masks: maps.Clone(a.masks)}
	for k, v := range b.masks {
		out.masks[k] |= v
	}
	out.bounded = joinGuards(a, b, a.bounded, b.bounded)
	out.positive = joinGuards(a, b, a.positive, b.positive)
	return out
}

func (p *taintProblem) Equal(a, b taintFact) bool {
	return a.dead == b.dead && maps.Equal(a.masks, b.masks) &&
		maps.Equal(a.bounded, b.bounded) && maps.Equal(a.positive, b.positive)
}

// Branch applies a condition's guards on the edge where it evaluated to
// taken. Every comparison leaf counts, through && and || alike (a decoder
// that checks at all is credited; the adversarial shapes the goldens pin
// have no check whatsoever). A leaf bounds its key on the edge where it holds
// — the true edge of x < cap, the false edge of x > cap — when the cap is
// clean there, and proves it positive per positiveOn. A loop's exit edge
// adds nothing: `i < n` failing only says a counter caught up with n, which
// bounds neither.
func (p *taintProblem) Branch(f taintFact, cond ast.Expr, taken bool) taintFact {
	if !taken && p.forConds[cond] != nil {
		return f
	}
	for _, g := range guards(cond) {
		k, _ := p.keyOf(g.x)
		if f.masks[k.root] == 0 {
			// A clean value needs no guard. Keeping clean roots out of the
			// sets keeps one representation per fact, so joins converge.
			continue
		}
		if g.exceedsCap() != taken && p.maskOf(f, g.cap) == 0 {
			f.bounded = f.bounded.with(k)
		}
		if lit, ok := ast.Unparen(g.cap).(*ast.BasicLit); ok && positiveOn[taken][g.op] == lit.Value {
			f.positive = f.positive.with(k)
		}
	}
	return f
}

// isPanicStmt matches a statement that calls the builtin panic: the path
// ends there.
func isPanicStmt(pkg *Package, n ast.Node) bool {
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "panic" && isBuiltin(pkg, id)
		}
	}
	return false
}

// keyOf is the guard key of an lvalue-ish expression; ok is false when the
// expression renders no key.
func (p *taintProblem) keyOf(e ast.Expr) (k guardKey, ok bool) {
	if k.path = exprKey(e); k.path == "" {
		return k, false
	}
	if root := rootIdent(e); root != nil {
		k.root = p.pkg.objectOf(root)
	}
	return k, true
}

func (p *taintProblem) Transfer(f taintFact, n ast.Node) taintFact {
	in := f // masks are evaluated against the fact BEFORE the node
	if isPanicStmt(p.pkg, n) {
		f.dead = true
		return f
	}
	set := func(obj types.Object, mask uint64, strong bool) {
		if obj == nil {
			return
		}
		if !strong {
			mask |= f.masks[obj]
		}
		if mask == f.masks[obj] {
			return
		}
		f.masks = mapWith(f.masks, obj, mask)
		if mask == 0 {
			delete(f.masks, obj) // absent means untainted
		}
	}
	// An assignment ends every guard on its key.
	kill := func(lhs ast.Expr) {
		if len(f.bounded)+len(f.positive) == 0 {
			return
		}
		if k, ok := p.keyOf(lhs); ok {
			f.bounded, f.positive = withoutRelated(f.bounded, k), withoutRelated(f.positive, k)
		}
	}
	if st, ok := n.(*ast.IncDecStmt); ok {
		kill(st.X)
	}
	assignTo := func(lhs ast.Expr, mask uint64) {
		if p.pkg.Info != nil {
			if tv, ok := p.pkg.Info.Types[lhs]; ok && tv.Type != nil && isErrorType(tv.Type) {
				mask = 0
			}
		}
		kill(lhs)
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			set(p.pkg.objectOf(id), mask, true)
		} else if root := rootIdent(lhs); root != nil {
			// Selector, index, star: field-insensitive weak update on the
			// root object — tainting one header field taints the header.
			set(p.pkg.objectOf(root), mask, false)
			// A field assigned a clean value (the clamp h.n = cap) is
			// bounded although its struct stays tainted.
			if _, isField := ast.Unparen(lhs).(*ast.SelectorExpr); isField && mask == 0 {
				if k, ok := p.keyOf(lhs); ok && f.masks[k.root] != 0 {
					f.bounded = f.bounded.with(k)
				}
			}
		}
	}
	asg, _ := n.(*ast.AssignStmt)
	compound := asg != nil && asg.Tok != token.ASSIGN && asg.Tok != token.DEFINE
	bound := false
	var tuple []uint64
	forEachBinding(n, func(b binding) {
		bound = true
		switch {
		case b.Rhs == nil:
			// var x T: zero value, nothing to propagate
		case p.rangeX[b.Rhs]:
			// Synthesized range binding: the key is an index/map key the
			// runtime bounds; the value carries the operand's element taint.
			if b.Index == 0 {
				assignTo(b.Lhs, 0)
			} else {
				assignTo(b.Lhs, p.maskOf(in, b.Rhs))
			}
		case compound:
			// x op= y: the result mixes both sides.
			assignTo(b.Lhs, p.maskOf(in, b.Lhs)|p.maskOf(in, b.Rhs))
		case b.N > 1:
			if b.Index == 0 {
				tuple = p.tupleMasks(in, b.Rhs, b.N) // once per statement, not per name
			}
			assignTo(b.Lhs, tuple[b.Index])
		default:
			assignTo(b.Lhs, p.maskOf(in, b.Rhs))
		}
	})
	if bound {
		return f
	}
	// Fill-style reads (r.Read(buf), io.ReadFull(r, buf)) taint the
	// destination slice as a side effect — when the reader itself is
	// untrusted (tainted, or any reader in an I/O-plane package). The walk
	// only collects the buffers: a closure that escapes into ast.Inspect
	// and updated f would move f to the heap on every Transfer.
	var filled []*ast.Ident
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name != "Read" && name != "ReadFull" && name != "ReadAtLeast" {
			return true
		}
		var readerMask uint64
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			readerMask = p.maskOf(in, sel.X)
		} else if len(call.Args) > 0 {
			readerMask = p.maskOf(in, call.Args[0])
		}
		if readerMask == 0 && !pkgReadsUntrustedFiles(p.pkg.Path) {
			return true
		}
		for _, arg := range call.Args {
			if p.pkg.Info == nil {
				continue
			}
			tv, ok := p.pkg.Info.Types[arg]
			if !ok || tv.Type == nil || !isByteSlice(tv.Type) {
				continue
			}
			if root := rootIdent(arg); root != nil {
				filled = append(filled, root)
			}
		}
		return true
	})
	for _, root := range filled {
		set(p.pkg.objectOf(root), taintSourceBit, false)
	}
	return f
}

// ---------------------------------------------------------------------------
// Mask evaluation.

// maskOf computes the taint mask of an expression under fact f: a value
// whose raw mask is tainted evaluates untainted where a guard has bounded
// its key on every path.
func (p *taintProblem) maskOf(f taintFact, e ast.Expr) uint64 {
	raw := p.rawMask(f, e)
	if raw == 0 {
		return 0
	}
	if len(f.bounded) > 0 {
		if k, ok := p.keyOf(e); ok && f.bounded[k] {
			return 0
		}
	}
	return raw
}

func (p *taintProblem) rawMask(f taintFact, e ast.Expr) uint64 {
	switch x := e.(type) {
	case *ast.Ident:
		return f.masks[p.pkg.objectOf(x)]
	case *ast.BasicLit:
		return 0
	case *ast.ParenExpr:
		return p.maskOf(f, x.X)
	case *ast.SelectorExpr:
		// http.Request.Body is a source regardless of provenance.
		if x.Sel.Name == "Body" && isNamed(p.pkg, x.X, "net/http", "Request") {
			return taintSourceBit
		}
		if obj := p.pkg.objectOf(x.Sel); obj != nil {
			// Package-qualified name (pkg.Const, pkg.Var): constants are
			// clean; package vars are config, treated as trusted.
			if _, isConst := obj.(*types.Const); isConst {
				return 0
			}
		}
		return p.maskOf(f, x.X)
	case *ast.IndexExpr:
		return p.maskOf(f, x.X)
	case *ast.IndexListExpr:
		return p.maskOf(f, x.X)
	case *ast.SliceExpr:
		return p.maskOf(f, x.X)
	case *ast.StarExpr:
		return p.maskOf(f, x.X)
	case *ast.TypeAssertExpr:
		return p.maskOf(f, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return p.maskOf(f, x.X)
		}
		if x.Op == token.NOT {
			return 0
		}
		return p.maskOf(f, x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return 0 // booleans carry no magnitude
		case token.REM, token.AND:
			// x % untaintedBound and x & untaintedMask are bounded.
			lm, rm := p.maskOf(f, x.X), p.maskOf(f, x.Y)
			if rm == 0 {
				return 0
			}
			return lm | rm
		}
		return p.maskOf(f, x.X) | p.maskOf(f, x.Y)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= p.maskOf(f, kv.Value)
				continue
			}
			m |= p.maskOf(f, el)
		}
		return m
	case *ast.CallExpr:
		masks := p.tupleMasks(f, x, 1)
		return masks[0]
	case *ast.FuncLit:
		return 0
	}
	return 0
}

// tupleMasks evaluates a (possibly multi-valued) expression to n result
// masks. Calls consult builtins, curated tables, and module-local summaries.
func (p *taintProblem) tupleMasks(f taintFact, e ast.Expr, n int) []uint64 {
	fill := func(m uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// Comma-ok forms (type assertion, map index): value mask, clean ok.
		out := fill(0)
		out[0] = p.maskOf(f, e)
		return out
	}
	argUnion := func() uint64 {
		var m uint64
		for _, a := range call.Args {
			m |= p.maskOf(f, a)
		}
		return m
	}
	// Builtins.
	if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && isBuiltin(p.pkg, id) {
		switch id.Name {
		case "len", "cap", "copy":
			// Lengths of in-memory values are bounded by what was actually
			// allocated or received — the len-derived sanitizer.
			return fill(0)
		case "make", "new":
			// The result is zeroed storage; the SIZE being tainted is a
			// sink, not a propagation.
			return fill(0)
		case "min":
			// min(tainted, cap) is bounded when any operand is clean.
			for _, a := range call.Args {
				if p.maskOf(f, a) == 0 {
					return fill(0)
				}
			}
			return fill(argUnion())
		case "append", "max":
			return fill(argUnion())
		}
	}
	// Conversions propagate the operand.
	if p.pkg.Info != nil {
		if tv, ok := p.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return fill(argUnion())
		}
	}
	// Curated sources and stdlib shapes.
	if fn := calleeObject(p.pkg, call); fn != nil && fn.Pkg() != nil {
		q := qualifiedName(fn)
		if sourceFuncs[q] && pkgReadsUntrustedFiles(p.pkg.Path) {
			out := fill(0)
			out[0] = taintSourceBit
			return out
		}
		if checkedShapeFuncs[fn.Name()] && strings.HasSuffix(fn.Pkg().Path(), "internal/core") {
			return fill(0)
		}
		switch q {
		case "encoding/binary.Uvarint", "encoding/binary.Varint":
			// The decoded value is stream bytes; the byte count is bounded
			// by the actual input length.
			out := fill(0)
			out[0] = argUnion()
			return out
		}
		// math/bits width and population counts return at most the bit
		// width (<= 64) for any input: too small to size an allocation,
		// drive a spin, or reach past a fixed table. Reverse/RotateLeft
		// are excluded — they preserve magnitude-carrying bits.
		if fn.Pkg().Path() == "math/bits" {
			name := fn.Name()
			for _, prefix := range []string{"Len", "OnesCount", "TrailingZeros", "LeadingZeros"} {
				if strings.HasPrefix(name, prefix) {
					return fill(0)
				}
			}
		}
	}
	// Method-call shapes.
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if boundedMethodNames[sel.Sel.Name] && len(call.Args) == 0 {
			return fill(0)
		}
		if p.isUntrustedReaderRecv(sel.X) {
			return fill(taintSourceBit)
		}
	}
	// Module-local calls: compose the callee's result masks with the argument
	// masks (receiver first for methods). Dynamic dispatch unions over every
	// possible callee.
	if edges := p.edgesBySite[call]; len(edges) > 0 {
		argMasks := p.callArgMasks(f, call, edges[0])
		var out []uint64
		for _, edge := range edges {
			composed := p.composeCall(f, call, edge, argMasks)
			if out == nil {
				out = composed
			} else {
				for i := range out {
					if i < len(composed) {
						out[i] |= composed[i]
					}
				}
			}
		}
		for len(out) < n {
			out = append(out, 0)
		}
		return out[:n]
	}
	// Unknown call: the result mixes the receiver and every argument.
	var m uint64
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		m |= p.maskOf(f, sel.X)
	}
	m |= argUnion()
	return fill(m)
}

// isUntrustedReaderRecv reports whether the receiver is a bitstream or
// rangecoder reader: those yield stream-derived values even when the stream
// that fed them is out of view.
func (p *taintProblem) isUntrustedReaderRecv(recv ast.Expr) bool {
	obj := namedType(p.pkg, recv)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return untrustedReaderPkgs[path[strings.LastIndex(path, "/")+1:]]
}

// callArgMasks computes the positional argument masks for a call, receiver
// first when the (first) callee is a method.
func (p *taintProblem) callArgMasks(f taintFact, call *ast.CallExpr, edge *CallEdge) []uint64 {
	var masks []uint64
	hasRecv := edge.Callee.Decl != nil && edge.Callee.Decl.Recv != nil
	if hasRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			masks = append(masks, p.maskOf(f, sel.X))
		} else {
			masks = append(masks, 0)
		}
	}
	for _, a := range call.Args {
		masks = append(masks, p.maskOf(f, a))
	}
	// Fold variadic extras into the callee's last parameter slot.
	calleeTN := p.ti.nodes[edge.Callee]
	if calleeTN != nil && len(calleeTN.params) > 0 && len(masks) > len(calleeTN.params) {
		last := len(calleeTN.params) - 1
		for _, m := range masks[last:] {
			masks[last] |= m
		}
		masks = masks[:len(calleeTN.params)]
	}
	return masks
}

// composeCall rewrites the callee's result masks (over callee parameter bits)
// into the caller's frame using the argument masks.
func (p *taintProblem) composeCall(f taintFact, call *ast.CallExpr, edge *CallEdge, argMasks []uint64) []uint64 {
	calleeTN := p.ti.nodes[edge.Callee]
	if calleeTN == nil {
		return nil
	}
	out := make([]uint64, len(calleeTN.out))
	for r, cm := range calleeTN.out {
		var m uint64
		if cm&taintSourceBit != 0 {
			m |= taintSourceBit
		}
		for i := range calleeTN.params {
			if cm&taintParamBit(i) != 0 && i < len(argMasks) {
				m |= argMasks[i]
			}
		}
		out[r] = m
	}
	return out
}

// ---------------------------------------------------------------------------
// Guards.

// comparisons flattens a condition into its comparison leaves, looking
// through && and || (documented leniency: an || arm still credits its key).
func comparisons(e ast.Expr) []*ast.BinaryExpr {
	var out []*ast.BinaryExpr
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		switch b := ast.Unparen(x).(type) {
		case *ast.BinaryExpr:
			switch b.Op {
			case token.LAND, token.LOR:
				walk(b.X)
				walk(b.Y)
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				out = append(out, b)
			}
		case *ast.UnaryExpr:
			if b.Op == token.NOT {
				walk(b.X)
			}
		}
	}
	walk(e)
	return out
}

// keySide is the expression a comparison operand guards, looking through
// conversions like uint64(total) so the guarded variable is recognized; nil
// when it renders no key.
func keySide(e ast.Expr) ast.Expr {
	x := ast.Unparen(e)
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// Treat any single-argument call as a possible conversion; a
		// non-conversion (f(x) > cap) simply fails to render a key via its
		// argument most of the time, and when it does render (len(x)) the
		// guard is still about x's extent.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" {
			return keySide(call.Args[0])
		}
		return nil
	}
	if exprKey(x) == "" {
		return nil
	}
	return x
}

// guard is one comparison leaf normalised to `x op cap`: the guarded
// expression on the left, whatever bounds it on the right. A comparison
// A op B has two readings — (A, op, B) and (B, mirrored op, A) — and guards
// yields each whose left side renders a key, so `0 < x` and `x > 0` are one
// shape.
type guard struct {
	x   ast.Expr
	op  token.Token
	cap ast.Expr
}

var mirroredOp = map[token.Token]token.Token{
	token.LSS: token.GTR, token.LEQ: token.GEQ, token.GTR: token.LSS,
	token.GEQ: token.LEQ, token.EQL: token.EQL, token.NEQ: token.NEQ,
}

// positiveOn lists, for the edge where a comparison holds (true) and the one
// where it fails (false), the `key op literal` shapes that prove the key
// strictly positive there: x > 0 and x >= 1 holding; x <= 0, x < 1 and
// x == 0 failing — and nothing else. x != 0 holding is not enough (a
// negative step is no more progress than a zero one), and `x < 0`, `x == 1`
// or `x >= 0` let a zero step through.
var positiveOn = map[bool]map[token.Token]string{
	true:  {token.GTR: "0", token.GEQ: "1"},
	false: {token.LEQ: "0", token.LSS: "1", token.EQL: "0"},
}

func guards(cond ast.Expr) []guard {
	var out []guard
	for _, c := range comparisons(cond) {
		if x := keySide(c.X); x != nil {
			out = append(out, guard{x, c.Op, c.Y})
		}
		if x := keySide(c.Y); x != nil {
			out = append(out, guard{x, mirroredOp[c.Op], c.X})
		}
	}
	return out
}

// exceedsCap matches the upper-bound violation "key exceeds cap": x > E,
// x >= E, and the failed equality pin x != E. Its negation — x <= E, x < E,
// x == E — is the hold, so for a comparison leaf "holds" is !exceedsCap.
func (g guard) exceedsCap() bool {
	return g.op == token.GTR || g.op == token.GEQ || g.op == token.NEQ
}

// shrinkingUnsigned reports whether the for-loop strictly shrinks bound (an
// unsigned variable) every iteration — v >>= c, v = v >> c, v /= c with a
// constant c, in the post statement or a top-level body statement — so a
// `v != 0` or `v > 0` condition terminates within bit-width iterations no
// matter how hostile the initial value is. Conditional shrinks nested in
// inner blocks are not trusted.
func (p *taintProblem) shrinkingUnsigned(fs *ast.ForStmt, bound ast.Expr) bool {
	id, ok := ast.Unparen(bound).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.pkg.objectOf(id)
	if obj == nil {
		return false
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsUnsigned == 0 {
		return false
	}
	constShrink := func(op token.Token, e ast.Expr) bool {
		lit, ok := ast.Unparen(e).(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return false
		}
		v, err := strconv.ParseUint(lit.Value, 0, 64)
		if err != nil {
			return false
		}
		if op == token.QUO {
			return v >= 2
		}
		return v >= 1 // shift
	}
	shrinks := func(st ast.Stmt) bool {
		asg, ok := st.(*ast.AssignStmt)
		if !ok {
			return false
		}
		switch asg.Tok {
		case token.SHR_ASSIGN, token.QUO_ASSIGN:
			if len(asg.Lhs) != 1 {
				return false
			}
			l, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
			if !ok || p.pkg.objectOf(l) != obj {
				return false
			}
			op := token.SHR
			if asg.Tok == token.QUO_ASSIGN {
				op = token.QUO
			}
			return constShrink(op, asg.Rhs[0])
		case token.ASSIGN:
			for i, lhs := range asg.Lhs {
				l, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || p.pkg.objectOf(l) != obj || i >= len(asg.Rhs) {
					continue
				}
				bin, ok := ast.Unparen(asg.Rhs[i]).(*ast.BinaryExpr)
				if !ok || (bin.Op != token.SHR && bin.Op != token.QUO) {
					continue
				}
				if r, ok := ast.Unparen(bin.X).(*ast.Ident); ok && p.pkg.objectOf(r) == obj {
					return constShrink(bin.Op, bin.Y)
				}
			}
		}
		return false
	}
	if fs.Post != nil && shrinks(fs.Post) {
		return true
	}
	for _, st := range fs.Body.List {
		if shrinks(st) {
			return true
		}
	}
	return false
}

// relatedKeys reports whether one rendered key is a component path of the
// other (assigning h invalidates guards on h.Rank and vice versa).
func relatedKeys(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if !strings.HasPrefix(b, a) {
		return false
	}
	rest := b[len(a):]
	return rest == "" || rest[0] == '.' || rest[0] == '['
}

// ---------------------------------------------------------------------------
// Sink and call-site scanning (after solving).

// scanSinks inspects one CFG node under its entry fact for the three sink
// shapes, deduplicating by position+label across solver replays.
func (p *taintProblem) scanSinks(f taintFact, n ast.Node, tn *taintNode, seen map[string]bool) {
	add := func(kind TaintKind, pos token.Pos, what string, e ast.Expr, mask uint64, fix string) {
		if mask == 0 {
			return
		}
		id := fmt.Sprintf("%d|%s", pos, what)
		if seen[id] {
			return
		}
		seen[id] = true
		expr := renderNode(p.pkg.Fset, e)
		if len(expr) > 40 {
			expr = expr[:37] + "..." // keep messages one line
		}
		tn.sinks = append(tn.sinks, TaintSink{Kind: kind, Pos: pos, What: what, Expr: expr, Mask: mask, Fix: fix})
	}

	// Loop bounds: a registered for-cond whose bounding side is tainted.
	if cond, isExpr := n.(ast.Expr); isExpr {
		if fs, isFor := p.forConds[cond]; isFor {
			for _, c := range comparisons(cond) {
				var bounds []ast.Expr
				switch c.Op {
				case token.LSS, token.LEQ:
					bounds = []ast.Expr{c.Y}
				case token.GTR, token.GEQ:
					bounds = []ast.Expr{c.X}
				case token.NEQ:
					bounds = []ast.Expr{c.X, c.Y}
				}
				for _, b := range bounds {
					if p.shrinkingUnsigned(fs, b) {
						continue
					}
					if m := p.maskOf(f, b); m != 0 {
						add(TaintLoop, b.Pos(), "loop bound", b, m,
							"cap it against a constant or config-derived limit before looping")
					}
				}
			}
		}
	}

	// Loop-carried steps: x += E inside a loop whose condition depends on x,
	// where E is tainted and not known positive — a zero step never
	// progresses.
	if asg, ok := n.(*ast.AssignStmt); ok && (asg.Tok == token.ADD_ASSIGN || asg.Tok == token.SUB_ASSIGN) && len(asg.Lhs) == 1 && len(asg.Rhs) == 1 {
		if id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident); ok {
			obj := p.pkg.objectOf(id)
			for _, loop := range p.loops {
				if !loop.condVars[obj] || !within(asg.Pos(), loop.stmt.Body) {
					continue
				}
				step := asg.Rhs[0]
				if m := p.maskOf(f, step); m != 0 {
					if k, ok := p.keyOf(step); ok && f.positive[k] {
						continue
					}
					add(TaintLoop, asg.Pos(), "loop step", step, m,
						"guard the step to be strictly positive before advancing")
				}
				break
			}
		}
	}

	inspectNoFuncLit(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			// Allocation sizes: make(T, n[, c]) and Buffer.Grow(n).
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" && isBuiltin(p.pkg, id) {
				for i, what := range []string{"", "make size", "make capacity"} {
					if i == 0 || i >= len(x.Args) {
						continue
					}
					if msk := p.maskOf(f, x.Args[i]); msk != 0 {
						add(TaintAlloc, x.Args[i].Pos(), what, x.Args[i], msk,
							"cap it against a constant or config-derived limit before allocating")
					}
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Grow" && len(x.Args) == 1 {
				if msk := p.maskOf(f, x.Args[0]); msk != 0 {
					add(TaintAlloc, x.Args[0].Pos(), "Grow size", x.Args[0], msk,
						"cap it against a constant or config-derived limit before growing")
				}
			}
		case *ast.IndexExpr:
			if !p.isSliceIndex(x) {
				return true
			}
			if msk := p.maskOf(f, x.Index); msk != 0 {
				add(TaintIndex, x.Index.Pos(), "index", x.Index, msk,
					"check it against len() before indexing")
				return true
			}
			// A clean induction variable whose loop bound is tainted still
			// walks arbitrarily far: vals[i] with `for i := 0; i < total`.
			if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok {
				obj := p.pkg.objectOf(id)
				for _, loop := range p.loops {
					bound, okB := loop.boundOf[obj]
					if !okB || !within(x.Pos(), loop.stmt.Body) {
						continue
					}
					if msk := p.maskOf(f, bound); msk != 0 {
						add(TaintIndex, x.Index.Pos(), "index bounded only by untrusted loop bound", bound, msk,
							"bound the loop by len() or cap the bound before indexing")
					}
					break
				}
			}
		}
		return true
	})
}

// isSliceIndex reports whether the index expression reads a slice or array
// (map lookups never panic on wild keys).
func (p *taintProblem) isSliceIndex(x *ast.IndexExpr) bool {
	if p.pkg.Info == nil {
		return false
	}
	tv, ok := p.pkg.Info.Types[x.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// within reports pos inside node's extent.
func within(pos token.Pos, n ast.Node) bool {
	return n != nil && pos >= n.Pos() && pos <= n.End()
}

// scanCalls records module-local call sites with argument masks for the
// top-down root propagation.
func (p *taintProblem) scanCalls(f taintFact, n ast.Node, tn *taintNode, seen map[*ast.CallExpr]bool) {
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || seen[call] {
			return true
		}
		edges := p.edgesBySite[call]
		if len(edges) == 0 {
			return true
		}
		seen[call] = true
		for _, edge := range edges {
			tn.calls = append(tn.calls, taintCall{
				callee:   edge.Callee,
				pos:      call.Pos(),
				argMasks: p.callArgMasks(f, call, edge),
			})
		}
		return true
	})
}

// recordReturn folds one return statement's masks into the node's result masks.
func (p *taintProblem) recordReturn(f taintFact, ret *ast.ReturnStmt, tn *taintNode) {
	if len(tn.out) == 0 {
		return
	}
	if len(ret.Results) == 0 {
		// Bare return: named results carry their current masks.
		for i, v := range p.results {
			if v != nil && !p.resultErrs[i] {
				tn.out[i] |= f.masks[v]
			}
		}
		return
	}
	if len(ret.Results) == 1 && len(tn.out) > 1 {
		masks := p.tupleMasks(f, ret.Results[0], len(tn.out))
		for i := range tn.out {
			if !p.resultErrs[i] {
				tn.out[i] |= masks[i]
			}
		}
		return
	}
	for i, r := range ret.Results {
		if i < len(tn.out) && !p.resultErrs[i] {
			tn.out[i] |= p.maskOf(f, r)
		}
	}
}
