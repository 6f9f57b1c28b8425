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
// len-derived bounds — each modeled as a syntactic region so findings can
// name the missing check. Sinks are the three shapes fuzzing found:
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
// callee is invisible to the caller's sanitizer regions, so naming the pair
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

// taintValFact maps variable objects to taint masks; absent means untainted.
type taintValFact map[types.Object]uint64

// taintProblem is the FlowProblem plus the syntactic context (sanitizer
// regions, loop structure, range rewrites) the evaluator consults.
type taintProblem struct {
	ti   *TaintInfo
	node *FuncNode
	pkg  *Package

	entry taintValFact
	// regions are the recognized sanitizer scopes.
	regions []taintRegion
	// assigns records every (key, pos) assignment for region invalidation.
	assigns []assignRec
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

// regionKind distinguishes what a sanitizer region guarantees.
type regionKind int

const (
	// regUpper: the key is bounded above by cap (or pinned to it).
	regUpper regionKind = iota
	// regPositive: the key is known strictly positive.
	regPositive
)

// taintRegion is one syntactic scope in which a guard holds for a key.
type taintRegion struct {
	key        string
	kind       regionKind
	cap        ast.Expr // bounding expression; nil for positive guards
	start, end token.Pos
}

// assignRec is one assignment to a rendered key, for region invalidation: a
// guard established before a reassignment says nothing about the new value.
type assignRec struct {
	key string
	pos token.Pos
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
		entry:       taintValFact{},
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
	p.collectAssigns()
	p.regions = collectRegions(n.Body)
	tn.out = make([]uint64, len(p.results))

	cfg := BuildCFG(n.Name, n.Body)
	res := Solve(cfg, p)
	seenSink := map[string]bool{}
	seenCall := map[*ast.CallExpr]bool{}
	WalkFacts(cfg, p, res, func(f taintValFact, node ast.Node) {
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
// expressions so the sink scan recognizes them.
func (p *taintProblem) collectLoops() {
	inspectNoFuncLit(p.node.Body, func(m ast.Node) bool {
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
	// Range statements: recognize the synthesized binding by its Rhs, which
	// is the original range operand by pointer identity.
	inspectNoFuncLit(p.node.Body, func(m ast.Node) bool {
		if rs, ok := m.(*ast.RangeStmt); ok {
			p.rangeX[rs.X] = true
		}
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

// collectAssigns records every assignment position by rendered key, so a
// sanitizer region is invalidated for uses after the key is reassigned.
func (p *taintProblem) collectAssigns() {
	add := func(e ast.Expr, pos token.Pos) {
		if k := exprKey(e); k != "" {
			p.assigns = append(p.assigns, assignRec{key: k, pos: pos})
		}
	}
	inspectNoFuncLit(p.node.Body, func(m ast.Node) bool {
		switch st := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				add(lhs, st.TokPos)
			}
		case *ast.IncDecStmt:
			add(st.X, st.Pos())
		case *ast.RangeStmt:
			if st.Key != nil {
				add(st.Key, st.For)
			}
			if st.Value != nil {
				add(st.Value, st.For)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// FlowProblem implementation.

func (p *taintProblem) EntryFact() taintValFact { return p.entry }

func (p *taintProblem) Join(a, b taintValFact) taintValFact {
	out := maps.Clone(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func (p *taintProblem) Equal(a, b taintValFact) bool { return maps.Equal(a, b) }

func (p *taintProblem) Transfer(f taintValFact, n ast.Node) taintValFact {
	in := f // masks are evaluated against the fact BEFORE the node
	set := func(obj types.Object, mask uint64, strong bool) {
		if obj == nil {
			return
		}
		if !strong {
			mask |= f[obj]
		}
		if mask == f[obj] {
			return
		}
		f = mapWith(f, obj, mask)
		if mask == 0 {
			delete(f, obj) // absent means untainted
		}
	}
	assignTo := func(lhs ast.Expr, mask uint64) {
		if p.pkg.Info != nil {
			if tv, ok := p.pkg.Info.Types[lhs]; ok && tv.Type != nil && isErrorType(tv.Type) {
				mask = 0
			}
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			set(p.pkg.objectOf(id), mask, true)
		} else if root := rootIdent(lhs); root != nil {
			// Selector, index, star: field-insensitive weak update on the
			// root object — tainting one header field taints the header.
			set(p.pkg.objectOf(root), mask, false)
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
				assignTo(b.Lhs, p.maskOf(in, b.Rhs, 0))
			}
		case compound:
			// x op= y: the result mixes both sides.
			assignTo(b.Lhs, p.maskOf(in, b.Lhs, 0)|p.maskOf(in, b.Rhs, 0))
		case b.N > 1:
			if b.Index == 0 {
				tuple = p.tupleMasks(in, b.Rhs, b.N) // once per statement, not per name
			}
			assignTo(b.Lhs, tuple[b.Index])
		default:
			assignTo(b.Lhs, p.maskOf(in, b.Rhs, 0))
		}
	})
	if bound {
		return f
	}
	// Fill-style reads (r.Read(buf), io.ReadFull(r, buf)) taint the
	// destination slice as a side effect — when the reader itself is
	// untrusted (tainted, or any reader in an I/O-plane package).
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
			readerMask = p.maskOf(in, sel.X, 0)
		} else if len(call.Args) > 0 {
			readerMask = p.maskOf(in, call.Args[0], 0)
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
				set(p.pkg.objectOf(root), taintSourceBit, false)
			}
		}
		return true
	})
	return f
}

// ---------------------------------------------------------------------------
// Mask evaluation.

const maxRegionDepth = 4

// maskOf computes the taint mask of an expression under fact f, applying
// sanitizer regions: a value whose raw mask is tainted evaluates untainted
// at points where a recognized upper-bound guard for it holds.
func (p *taintProblem) maskOf(f taintValFact, e ast.Expr, depth int) uint64 {
	raw := p.rawMask(f, e, depth)
	if raw == 0 {
		return 0
	}
	if key := exprKey(e); key != "" && p.regionKills(f, key, e.Pos(), regUpper, depth) {
		return 0
	}
	return raw
}

func (p *taintProblem) rawMask(f taintValFact, e ast.Expr, depth int) uint64 {
	switch x := e.(type) {
	case *ast.Ident:
		return f[p.pkg.objectOf(x)]
	case *ast.BasicLit:
		return 0
	case *ast.ParenExpr:
		return p.maskOf(f, x.X, depth)
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
		return p.maskOf(f, x.X, depth)
	case *ast.IndexExpr:
		return p.maskOf(f, x.X, depth)
	case *ast.IndexListExpr:
		return p.maskOf(f, x.X, depth)
	case *ast.SliceExpr:
		return p.maskOf(f, x.X, depth)
	case *ast.StarExpr:
		return p.maskOf(f, x.X, depth)
	case *ast.TypeAssertExpr:
		return p.maskOf(f, x.X, depth)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return p.maskOf(f, x.X, depth)
		}
		if x.Op == token.NOT {
			return 0
		}
		return p.maskOf(f, x.X, depth)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return 0 // booleans carry no magnitude
		case token.REM, token.AND:
			// x % untaintedBound and x & untaintedMask are bounded.
			lm, rm := p.maskOf(f, x.X, depth), p.maskOf(f, x.Y, depth)
			if rm == 0 {
				return 0
			}
			return lm | rm
		}
		return p.maskOf(f, x.X, depth) | p.maskOf(f, x.Y, depth)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= p.maskOf(f, kv.Value, depth)
				continue
			}
			m |= p.maskOf(f, el, depth)
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
func (p *taintProblem) tupleMasks(f taintValFact, e ast.Expr, n int) []uint64 {
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
		out[0] = p.maskOf(f, e, 0)
		return out
	}
	argUnion := func() uint64 {
		var m uint64
		for _, a := range call.Args {
			m |= p.maskOf(f, a, 0)
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
				if p.maskOf(f, a, 0) == 0 {
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
		m |= p.maskOf(f, sel.X, 0)
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
func (p *taintProblem) callArgMasks(f taintValFact, call *ast.CallExpr, edge *CallEdge) []uint64 {
	var masks []uint64
	hasRecv := edge.Callee.Decl != nil && edge.Callee.Decl.Recv != nil
	if hasRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			masks = append(masks, p.maskOf(f, sel.X, 0))
		} else {
			masks = append(masks, 0)
		}
	}
	for _, a := range call.Args {
		masks = append(masks, p.maskOf(f, a, 0))
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
func (p *taintProblem) composeCall(f taintValFact, call *ast.CallExpr, edge *CallEdge, argMasks []uint64) []uint64 {
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
// Sanitizer regions.

// collectRegions scans the body for recognized bound-check idioms and
// returns the scopes in which each holds. The recognizer is deliberately
// syntactic (the CFG has no branch-labeled edges) and deliberately lenient:
// ANY upper-violation comparison on a key anywhere inside a terminating
// guard's condition grants the region — a decoder that checks at all is
// credited, and the adversarial cases the goldens pin are the ones with no
// check whatsoever.
func collectRegions(body *ast.BlockStmt) []taintRegion {
	var regions []taintRegion
	var scan func(list []ast.Stmt, blockEnd, returnEnd token.Pos)
	scan = func(list []ast.Stmt, blockEnd, returnEnd token.Pos) {
		for _, s := range list {
			switch st := s.(type) {
			case *ast.IfStmt:
				regions = append(regions, regionsOfIf(st, blockEnd, returnEnd)...)
				scan(st.Body.List, blockEnd, returnEnd)
				switch els := st.Else.(type) {
				case *ast.BlockStmt:
					scan(els.List, blockEnd, returnEnd)
				case *ast.IfStmt:
					scan([]ast.Stmt{els}, blockEnd, returnEnd)
				}
			case *ast.ForStmt:
				// A for-cond of the form x < E bounds x throughout the body.
				if st.Cond != nil {
					for _, g := range guards(st.Cond) {
						if !g.exceedsCap() {
							regions = append(regions, g.region(regUpper, st.Body.Pos(), st.Body.End()))
						}
					}
				}
				// Guards inside a loop body that return/panic extend past the
				// loop: the accumulate-and-check idiom (grow total, bail when
				// it crosses the cap, allocate after the loop).
				scan(st.Body.List, st.Body.End(), returnEnd)
			case *ast.RangeStmt:
				scan(st.Body.List, st.Body.End(), returnEnd)
			case *ast.BlockStmt:
				scan(st.List, blockEnd, returnEnd)
			case *ast.SwitchStmt:
				for _, cc := range st.Body.List {
					if c, ok := cc.(*ast.CaseClause); ok {
						scan(c.Body, blockEnd, returnEnd)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, cc := range st.Body.List {
					if c, ok := cc.(*ast.CaseClause); ok {
						scan(c.Body, blockEnd, returnEnd)
					}
				}
			case *ast.SelectStmt:
				for _, cc := range st.Body.List {
					if c, ok := cc.(*ast.CommClause); ok {
						scan(c.Body, blockEnd, returnEnd)
					}
				}
			case *ast.LabeledStmt:
				scan([]ast.Stmt{st.Stmt}, blockEnd, returnEnd)
			}
		}
	}
	end := body.End()
	scan(body.List, end, end)
	return regions
}

// regionsOfIf derives the sanitizer regions one if statement establishes.
// Every guard of the condition holds inside the body; its negation holds in
// the else branch and — when the body terminates — after the statement.
func regionsOfIf(st *ast.IfStmt, blockEnd, returnEnd token.Pos) []taintRegion {
	var regions []taintRegion
	// after is where the negated condition stops holding past the if: a
	// returning/panicking body rules the condition out for the rest of the
	// function, a break/continue for the rest of the block, anything else
	// not at all.
	after := token.NoPos
	switch terminator(st.Body) {
	case termReturn:
		after = returnEnd
	case termBranch:
		after = blockEnd
	}
	clamp := clampBody(st.Body)
	for _, g := range guards(st.Cond) {
		if g.exceedsCap() {
			// if x > cap { return err } / { panic } / { break }: x <= cap on
			// the fallthrough path. Also the failed equality pin x != pin.
			if after != token.NoPos {
				regions = append(regions, g.region(regUpper, st.End(), after))
			}
			if clamp == g.key {
				// if x > cap { x = cap }: bounded afterwards even without a
				// terminator.
				regions = append(regions, g.region(regUpper, st.End(), returnEnd))
			}
			if els, ok := st.Else.(*ast.BlockStmt); ok {
				regions = append(regions, g.region(regUpper, els.Pos(), els.End()))
			}
		} else {
			// if x < cap { ...bounded... }
			regions = append(regions, g.region(regUpper, st.Body.Pos(), st.Body.End()))
		}
		if g.notPositive() && after != token.NoPos {
			regions = append(regions, g.region(regPositive, st.End(), after))
		}
		// x != 0 (the negation of x == 0) is not taken as a hold: a negative
		// step is no more progress than a zero one.
		if g.op != token.NEQ && g.negated().notPositive() {
			regions = append(regions, g.region(regPositive, st.Body.Pos(), st.Body.End()))
		}
	}
	return regions
}

type termKind int

const (
	termNone termKind = iota
	termReturn
	termBranch
)

// terminator classifies how an if body ends: return/panic (the guard holds
// for the rest of the function), break/continue (it holds for the rest of
// the loop body), or neither.
func terminator(body *ast.BlockStmt) termKind {
	if len(body.List) == 0 {
		return termNone
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return termReturn
	case *ast.BranchStmt:
		if last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO {
			return termBranch
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return termReturn
			}
		}
	}
	return termNone
}

// clampBody returns the assigned key when every statement in the body
// assigns the same key (the clamp idiom `if v > cap { v = cap }`), else "".
func clampBody(body *ast.BlockStmt) string {
	if len(body.List) == 0 {
		return ""
	}
	key := ""
	for _, s := range body.List {
		asg, ok := s.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 {
			return ""
		}
		k := exprKey(asg.Lhs[0])
		if k == "" || (key != "" && k != key) {
			return ""
		}
		key = k
	}
	return key
}

// comparisons flattens a condition into its comparison leaves, looking
// through && and || (documented leniency: an || arm still grants the
// region).
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

// keySide renders a comparison operand as a region key, looking through
// conversions like uint64(total) so the guarded variable is recognized.
func keySide(e ast.Expr) string {
	x := ast.Unparen(e)
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// Treat any single-argument call as a possible conversion; a
		// non-conversion (f(x) > cap) simply fails to render a key via its
		// argument most of the time, and when it does render (len(x)) the
		// guard is still about x's extent.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" {
			return keySide(call.Args[0])
		}
		return ""
	}
	return exprKey(x)
}

// guard is one comparison leaf normalised to `key op cap`: the guarded
// variable on the left, whatever bounds it on the right. A comparison A op B
// has two readings — (A, op, B) and (B, mirrored op, A) — and guards yields
// each whose left side renders a key, so `0 < x` and `x > 0` are one shape.
type guard struct {
	key string
	op  token.Token
	cap ast.Expr
}

var (
	mirroredOp = map[token.Token]token.Token{
		token.LSS: token.GTR, token.LEQ: token.GEQ, token.GTR: token.LSS,
		token.GEQ: token.LEQ, token.EQL: token.EQL, token.NEQ: token.NEQ,
	}
	negatedOp = map[token.Token]token.Token{
		token.LSS: token.GEQ, token.LEQ: token.GTR, token.GTR: token.LEQ,
		token.GEQ: token.LSS, token.EQL: token.NEQ, token.NEQ: token.EQL,
	}
)

func guards(cond ast.Expr) []guard {
	var out []guard
	for _, c := range comparisons(cond) {
		if k := keySide(c.X); k != "" {
			out = append(out, guard{k, c.Op, c.Y})
		}
		if k := keySide(c.Y); k != "" {
			out = append(out, guard{k, mirroredOp[c.Op], c.X})
		}
	}
	return out
}

// negated is the guard that holds where g does not.
func (g guard) negated() guard {
	g.op = negatedOp[g.op]
	return g
}

// exceedsCap matches the upper-bound violation "key exceeds cap": x > E,
// x >= E, and the failed equality pin x != E. Its negation — x <= E, x < E,
// x == E — is the hold, so for a comparison leaf "holds" is !exceedsCap.
func (g guard) exceedsCap() bool {
	return g.op == token.GTR || g.op == token.GEQ || g.op == token.NEQ
}

// notPositive matches the positive-step violation "key is not strictly
// positive": x <= 0, x < 1, x == 0 — and nothing else; accepting either
// literal under any operator let `x < 0`, `x == 1` and `x >= 0` pass for a
// positive guard while a zero step still spun.
func (g guard) notPositive() bool {
	lit, ok := ast.Unparen(g.cap).(*ast.BasicLit)
	if !ok {
		return false
	}
	switch g.op {
	case token.LEQ, token.EQL:
		return lit.Value == "0"
	case token.LSS:
		return lit.Value == "1"
	}
	return false
}

// region is the scope [start, end] in which the guard (or its negation — the
// caller knows which) establishes kind for the key. Only an upper bound
// carries the cap: its taint decides whether the bound means anything.
func (g guard) region(kind regionKind, start, end token.Pos) taintRegion {
	r := taintRegion{key: g.key, kind: kind, start: start, end: end}
	if kind == regUpper {
		r.cap = g.cap
	}
	return r
}

// regionKills reports whether a sanitizer region of the wanted kind covers
// a use of key at pos. An upper region only applies when its cap expression
// itself evaluates untainted there (a tainted cap bounds nothing), and any
// region is invalidated by an intervening assignment to the key (or a
// related key) between the guard and the use.
func (p *taintProblem) regionKills(f taintValFact, key string, pos token.Pos, kind regionKind, depth int) bool {
	if depth >= maxRegionDepth {
		return false
	}
	for i := range p.regions {
		r := &p.regions[i]
		if r.kind != kind || r.key != key || pos < r.start || pos > r.end {
			continue
		}
		if p.assignedBetween(key, r.start, pos) {
			continue
		}
		if r.cap != nil && p.maskOf(f, r.cap, depth+1) != 0 {
			continue
		}
		return true
	}
	return false
}

// assignedBetween reports an assignment to key (or a prefix-related key)
// strictly inside (start, before).
func (p *taintProblem) assignedBetween(key string, start, before token.Pos) bool {
	for _, a := range p.assigns {
		if a.pos <= start || a.pos >= before {
			continue
		}
		if a.key == key || relatedKeys(a.key, key) {
			return true
		}
	}
	return false
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
func (p *taintProblem) scanSinks(f taintValFact, n ast.Node, tn *taintNode, seen map[string]bool) {
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
					if m := p.maskOf(f, b, 0); m != 0 {
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
				if m := p.maskOf(f, step, 0); m != 0 {
					if k := exprKey(step); k != "" && p.regionKills(f, k, step.Pos(), regPositive, 0) {
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
					if msk := p.maskOf(f, x.Args[i], 0); msk != 0 {
						add(TaintAlloc, x.Args[i].Pos(), what, x.Args[i], msk,
							"cap it against a constant or config-derived limit before allocating")
					}
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Grow" && len(x.Args) == 1 {
				if msk := p.maskOf(f, x.Args[0], 0); msk != 0 {
					add(TaintAlloc, x.Args[0].Pos(), "Grow size", x.Args[0], msk,
						"cap it against a constant or config-derived limit before growing")
				}
			}
		case *ast.IndexExpr:
			if !p.isSliceIndex(x) {
				return true
			}
			if msk := p.maskOf(f, x.Index, 0); msk != 0 {
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
					if msk := p.maskOf(f, bound, 0); msk != 0 {
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
func (p *taintProblem) scanCalls(f taintValFact, n ast.Node, tn *taintNode, seen map[*ast.CallExpr]bool) {
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
func (p *taintProblem) recordReturn(f taintValFact, ret *ast.ReturnStmt, tn *taintNode) {
	if len(tn.out) == 0 {
		return
	}
	if len(ret.Results) == 0 {
		// Bare return: named results carry their current masks.
		for i, v := range p.results {
			if v != nil && !p.resultErrs[i] {
				tn.out[i] |= f[v]
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
			tn.out[i] |= p.maskOf(f, r, 0)
		}
	}
}
