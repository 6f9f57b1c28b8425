package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function summaries bottom-up over the call graph's
// SCC condensation. A summary answers, for one function body, the questions
// the interprocedural analyzers ask at call sites: can this call block (on
// whom, and why), does it allocate (and where), does it spawn goroutines,
// does it see a context. Within an SCC the facts are monotone, so the
// computation iterates the bottom-up order to a fixpoint; calls that leave
// the module (standard library) are classified by the curated tables below
// instead of a summary.

// FuncSummary is the interprocedural abstract of one function body.
type FuncSummary struct {
	// SpawnsGoroutine: the body (not its callees) contains a go statement.
	SpawnsGoroutine bool

	// Blocks: a call may not return promptly — channel operations, I/O,
	// sync waits, or a Compress/Decompress dispatch (whose cost is the
	// codec's, unbounded from the caller's perspective). BlockKind says who
	// bounds the strongest such wait in the body or its callees and BlockWhy
	// names it. Propagates through every call edge except go statements (the
	// spawner does not wait).
	Blocks    bool
	BlockKind BlockKind
	BlockWhy  string

	// Allocates: the body has a non-exempt allocation site, or reaches one
	// through module-local calls. AllocVia is the call chain ("WriteBits:
	// append grows w.buf"), empty for own sites.
	Allocates bool
	AllocWhat string
	AllocVia  string

	// HasCtxParam / UsesCtx: the declared signature takes a context.Context,
	// and the body actually reads some context value (its own parameter or a
	// captured one).
	HasCtxParam bool
	UsesCtx     bool

	// OwnAllocs lists the body's non-exempt allocation sites for hotalloc.
	OwnAllocs []AllocSite
}

// AllocSite is one allocation the summary walker attributes to a body.
type AllocSite struct {
	Pos    token.Pos
	What   string
	InLoop bool // syntactically inside a for/range in this body
}

// Summaries is the computed summary table plus the graph it covers.
type Summaries struct {
	Graph *CallGraph
	info  map[*FuncNode]*FuncSummary
}

// Of returns the summary of a node (nil for nil nodes).
func (s *Summaries) Of(n *FuncNode) *FuncSummary {
	if n == nil {
		return nil
	}
	return s.info[n]
}

// ---------------------------------------------------------------------------
// Curated classification of calls that leave the module.

// BlockKind says who bounds a blocking operation. blockinglock only objects
// to BlockPeer: a lock held across a local-disk write is a critical section
// that includes I/O, while a lock held across a wait on somebody else is a
// convoy whose length that somebody decides.
type BlockKind uint8

const (
	// BlockLocal: nothing outside this process and its kernel is waited on —
	// local-disk os/io/fs/syscall calls (os.Exit included: nobody queues
	// behind a process that is gone), an io.Writer-shaped call into an
	// in-memory hash, and sync.Cond.Wait, which releases its lock while
	// parked.
	BlockLocal BlockKind = iota + 1
	// BlockPeer: another party bounds the wait — a channel peer, a
	// WaitGroup's workers, a timer, a socket, a subprocess, whatever sits
	// behind an io.Reader/io.Writer, a codec.
	BlockPeer
)

// blockingStdPkgs are the packages whose exported calls are treated as I/O
// that can stall indefinitely, by who is on the other end: sockets, pipes,
// subprocesses and arbitrary readers/writers are a peer; files are local.
var blockingStdPkgs = map[string]BlockKind{
	"net": BlockPeer, "net/http": BlockPeer, "os/exec": BlockPeer,
	"io": BlockPeer, "bufio": BlockPeer,
	"os": BlockLocal, "syscall": BlockLocal, "io/fs": BlockLocal,
}

// nonBlockingStdFuncs exempts the calls in those packages that never touch
// the kernel: environment, pid and error-classification helpers.
var nonBlockingStdFuncs = map[string]bool{
	"os.Getenv": true, "os.LookupEnv": true, "os.Setenv": true,
	"os.Environ": true, "os.Getpid": true, "os.Geteuid": true,
	"os.IsNotExist": true, "os.IsExist": true, "os.IsPermission": true,
	"os.IsTimeout": true, "os.Expand": true, "os.ExpandEnv": true,
	"io.LimitReader": true, "io.MultiReader": true, "io.MultiWriter": true,
	"io.NopCloser": true, "bufio.NewReader": true, "bufio.NewWriter": true,
	"bufio.NewScanner": true, "bufio.NewReadWriter": true,
	"net/http.NewServeMux": true, "net/http.NotFound": true,
	"net/http.Error": true, "net/http.MaxBytesReader": true,
	"net/http.NewRequest": true, "net/http.StatusText": true,
	"log/slog.Enabled": true, "log/slog.Handler": true, "log/slog.With": true, "log/slog.WithGroup": true,
}

// dispatchMethodNames are the generic-compression entry points: a call to
// any method with one of these names is a codec dispatch whose duration is
// the plugin's business — holding a lock across one stalls every peer for as
// long as the codec (or the external process behind it) takes. They are also
// the methods whose first parameter is the caller-owned input buffer
// (bufalias).
var dispatchMethodNames = map[string]bool{
	"Compress": true, "Decompress": true,
	"CompressImpl": true, "DecompressImpl": true,
}

// coldPathFuncs construct errors; allocation under them is cold-path by
// convention and never charged to the enclosing function.
var coldPathFuncs = map[string]bool{
	"errors.New": true, "fmt.Errorf": true,
}

// qualifiedName renders "pkg/path.Name" (receiver-less) for table lookups.
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleeObject resolves the called *types.Func of a call expression when the
// callee is a named function or method — F(...), x.F(...) and the generic
// instantiations F[T](...) — and nil for function values and literals.
func calleeObject(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	var fn *types.Func
	switch x := fun.(type) {
	case *ast.Ident:
		fn, _ = pkg.objectOf(x).(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pkg.objectOf(x.Sel).(*types.Func)
	}
	return fn
}

// stdlibBlocking classifies a call that leaves the module: the reason, who
// bounds the wait (0 when the call does not block), and whether it can stall
// indefinitely (what goroutineleak asks).
func stdlibBlocking(pkg *Package, call *ast.CallExpr) (reason string, kind BlockKind, forever bool) {
	fn := calleeObject(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", 0, false
	}
	var recv ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = sel.X
	}
	q, path := qualifiedName(fn), fn.Pkg().Path()
	switch {
	case q == "time.Sleep":
		return q, BlockPeer, false
	case path == "sync" && fn.Name() == "Wait":
		if isNamed(pkg, recv, "sync", "Cond") {
			return "sync wait", BlockLocal, true
		}
		return "sync wait", BlockPeer, true
	case nonBlockingStdFuncs[q]:
		return "", 0, false
	case path == "io" && isNamed(pkg, recv, "hash", ""):
		return q + " (I/O)", BlockLocal, true // hash.Hash embeds io.Writer; the bytes go to memory
	case isNamed(pkg, recv, "log/slog", "Logger"):
		return q + " (log write)", BlockPeer, true // the handler writes to whatever sink the process gave it
	}
	if kind := blockingStdPkgs[path]; kind != 0 {
		return q + " (I/O)", kind, true
	}
	return "", 0, false
}

// namedType resolves the named type (through one pointer) of an expression's
// static type; nil for unnamed types and missing type information.
func namedType(pkg *Package, e ast.Expr) *types.TypeName {
	if pkg.Info == nil {
		return nil
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// isNamed reports whether e's static type is the named type pkgPath.name
// (any type of pkgPath when name is "").
func isNamed(pkg *Package, e ast.Expr, pkgPath, name string) bool {
	obj := namedType(pkg, e)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && (name == "" || obj.Name() == name)
}

// isDispatchCall reports whether the call is a compressor dispatch: a method
// call named Compress/Decompress/CompressImpl/DecompressImpl. Matching is by
// name so fixture packages can model dispatch without importing
// internal/core; plain functions with those names (not methods) are exempt,
// but package-qualified forms (core.Compress(c, in)) count: the helper
// forwards straight to the interface method.
func isDispatchCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && dispatchMethodNames[sel.Sel.Name]
}

// calleeQName renders the qualified name of a call's named callee ("" for
// function values and literals), for lookups in the curated tables.
func calleeQName(pkg *Package, call *ast.CallExpr) string {
	if fn := calleeObject(pkg, call); fn != nil {
		return qualifiedName(fn)
	}
	return ""
}

// isColdPathCall reports error-construction calls whose subtree the
// allocation walker skips.
func isColdPathCall(pkg *Package, call *ast.CallExpr) bool {
	return coldPathFuncs[calleeQName(pkg, call)]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isContextCtorCall matches context.Background() / context.TODO().
func isContextCtorCall(pkg *Package, call *ast.CallExpr) bool {
	q := calleeQName(pkg, call)
	return q == "context.Background" || q == "context.TODO"
}

// ---------------------------------------------------------------------------
// Summary computation.

// ComputeSummaries builds the summary table bottom-up; within SCCs it
// iterates to a fixpoint (the propagated facts are monotone booleans, so the
// iteration count is bounded by the number of facts).
func ComputeSummaries(g *CallGraph) *Summaries {
	s := &Summaries{Graph: g, info: make(map[*FuncNode]*FuncSummary, len(g.Nodes))}
	order := g.BottomUp()
	for _, n := range order {
		s.info[n] = s.local(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if s.propagate(n) {
				changed = true
			}
		}
	}
	return s
}

// local computes the call-free half of a node's summary: own blocking
// constructs, own allocation sites, lock operations, context usage.
func (s *Summaries) local(n *FuncNode) *FuncSummary {
	sum := &FuncSummary{}
	pkg := n.Pkg
	if params := n.funcType().Params; params != nil && pkg.Info != nil {
		for _, field := range params.List {
			if tv, ok := pkg.Info.Types[field.Type]; ok && tv.Type != nil && isContextType(tv.Type) {
				sum.HasCtxParam = true
			}
		}
	}

	walkAlloc(n, func(site AllocSite) {
		sum.OwnAllocs = append(sum.OwnAllocs, site)
		if !sum.Allocates {
			sum.Allocates, sum.AllocWhat = true, site.What
		}
	})

	// The walk is preorder, so a select, range or go statement is marked
	// before the nodes it marks are classified.
	sites := blockSites{}
	inspectNoFuncLit(n.Body, func(m ast.Node) bool {
		sites.mark(pkg, m)
		switch x := m.(type) {
		case *ast.GoStmt:
			sum.SpawnsGoroutine = true
		case *ast.Ident:
			if v, ok := pkg.objectOf(x).(*types.Var); ok && isContextType(v.Type()) {
				sum.UsesCtx = true
			}
		}
		if why, kind := sites.classify(pkg, m); kind > sum.BlockKind {
			// A summary names the wait without the article a diagnostic
			// puts in front of it ("which blocks (channel receive)").
			sum.Blocks, sum.BlockKind, sum.BlockWhy = true, kind, strings.TrimPrefix(why, "a ")
		}
		return true
	})
	return sum
}

// blockSites maps what the CFG takes apart to the wait it stands for, so one
// classifier serves the CFG walk (blockinglock) and the AST walk (summaries)
// alike: a comm of a select without default stands for the select, and the
// operand of a range over a channel for the range. "" marks what never waits
// by itself: a comm of a select with a default, anything inside a comm (it
// runs once the select picked its case), and the call a go statement spawns.
type blockSites map[ast.Node]string

// mark records the nodes m takes apart: the comms of a select, the operand
// of a range over a channel, the call of a go statement.
func (s blockSites) mark(pkg *Package, m ast.Node) {
	switch x := m.(type) {
	case *ast.SelectStmt:
		why := "a blocking select"
		if selectHasDefault(x) {
			why = ""
		}
		for _, c := range x.Body.List {
			if cc := c.(*ast.CommClause); cc.Comm != nil {
				inspectNoFuncLit(cc.Comm, func(in ast.Node) bool {
					s[in] = ""
					return true
				})
				s[cc.Comm] = why
			}
		}
	case *ast.RangeStmt:
		if rangesOverChan(pkg, x) {
			s[x.X] = "a range over a channel"
		}
	case *ast.GoStmt:
		s[x.Call] = ""
	}
}

// classify is the one blocking-construct classifier: it names the wait at m
// and who bounds it, or returns kind 0. Calls into the module are left to
// their summaries.
func (s blockSites) classify(pkg *Package, m ast.Node) (why string, kind BlockKind) {
	if why, marked := s[m]; marked {
		if why == "" {
			return "", 0
		}
		return why, BlockPeer
	}
	switch x := m.(type) {
	case *ast.SendStmt:
		return "a channel send", BlockPeer
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "a channel receive", BlockPeer
		}
	case *ast.CallExpr:
		if why, kind, _ := stdlibBlocking(pkg, x); kind != 0 {
			return why, kind
		}
		if isDispatchCall(x) {
			return "a compressor dispatch", BlockPeer
		}
	}
	return "", 0
}

// selectHasDefault reports whether the select can fall through without
// waiting for any of its channel operations.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// propagate folds callee summaries into n's summary; reports change.
func (s *Summaries) propagate(n *FuncNode) bool {
	sum := s.info[n]
	changed := false
	for _, e := range n.Calls {
		if e.Go {
			continue // the spawner neither waits nor blocks on the spawned body
		}
		callee := s.info[e.Callee]
		if callee == nil {
			continue
		}
		if callee.BlockKind > sum.BlockKind {
			sum.Blocks, sum.BlockKind = true, callee.BlockKind
			sum.BlockWhy = "call to " + e.Callee.ShortName() + " (" + callee.BlockWhy + ")"
			changed = true
		}
		if callee.Allocates && !sum.Allocates {
			sum.Allocates = true
			sum.AllocWhat = callee.AllocWhat
			via := e.Callee.ShortName()
			if callee.AllocVia != "" {
				via += " -> " + callee.AllocVia
			}
			sum.AllocVia = via
			changed = true
		}
	}
	return changed
}

// ShortName strips the package qualifier for chain rendering.
func (n *FuncNode) ShortName() string {
	name := n.Name
	if i := strings.Index(name, "."); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// ---------------------------------------------------------------------------
// Allocation-site walker.

// walkAlloc visits every non-exempt allocation site of a body. Exemptions,
// chosen to mirror what the benchmark's allocs/op rows tolerate:
//   - error construction (errors.New / fmt.Errorf) and everything inside it:
//     cold path by convention;
//   - append assigned back to a field of the receiver (w.buf = append(w.buf,
//     ...)): amortized growth of an owned buffer;
//   - append assigned back to a local whose make(...) with a capacity/length
//     argument is visible in the same body: preallocated;
//   - append assigned back to a slice parameter (the strconv.AppendInt
//     builder idiom: growth amortizes into the caller's buffer policy);
//   - append whose first operand is a slice expression (the splice idioms
//     x = append(x[:i], x[i+1:]...) and reuse-append(x[:0], ...) write into
//     existing capacity).
func walkAlloc(n *FuncNode, visit func(AllocSite)) {
	pkg := n.Pkg
	// preallocated locals: name -> true when defined by make with capacity.
	prealloc := map[string]bool{}
	forEachCallBinding(n.Body, "make", func(lhs ast.Expr, call *ast.CallExpr) {
		if id, ok := lhs.(*ast.Ident); ok && len(call.Args) >= 2 {
			prealloc[id.Name] = true
		}
	})

	recvNames := map[string]bool{}
	if n.Decl != nil && n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			for _, name := range f.Names {
				recvNames[name.Name] = true
			}
		}
	}
	paramNames := map[string]bool{}
	if params := n.funcType().Params; params != nil {
		for _, f := range params.List {
			for _, name := range f.Names {
				paramNames[name.Name] = true
			}
		}
	}

	// exemptAppend maps the append CallExpr -> true when it is the exempt
	// x = append(x, ...) shape with x preallocated or a receiver field.
	exemptAppend := map[*ast.CallExpr]bool{}
	forEachCallBinding(n.Body, "append", func(lhs ast.Expr, call *ast.CallExpr) {
		if len(call.Args) == 0 || exprKey(lhs) == "" || exprKey(lhs) != exprKey(call.Args[0]) {
			return
		}
		switch lhs := lhs.(type) {
		case *ast.SelectorExpr:
			if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && recvNames[base.Name] {
				exemptAppend[call] = true // amortized owned-buffer growth
			}
		case *ast.Ident:
			if prealloc[lhs.Name] || paramNames[lhs.Name] {
				exemptAppend[call] = true // preallocated, or builder idiom
			}
		}
	})

	walkLoopDepth(n.Body, 0, func(m ast.Node, loopDepth int) bool {
		site := func(what string) { visit(AllocSite{Pos: m.Pos(), What: what, InLoop: loopDepth > 0}) }
		switch x := m.(type) {
		case *ast.FuncLit:
			site("closure")
			return false // its body is another node
		case *ast.CallExpr:
			if isColdPathCall(pkg, x) {
				return false // error construction: cold path
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && isBuiltin(pkg, id) {
				switch id.Name {
				case "make", "new":
					site(id.Name)
				case "append":
					exempt := exemptAppend[x]
					if len(x.Args) > 0 {
						switch arg := ast.Unparen(x.Args[0]).(type) {
						case *ast.SliceExpr:
							// Splice/reuse idioms write into existing
							// capacity.
							exempt = true
						case *ast.Ident:
							// Builder idiom (return append(buf, ...)):
							// growth amortizes into the caller's buffer.
							exempt = exempt || paramNames[arg.Name]
						}
					}
					if !exempt {
						site("append growth")
					}
				}
			}
			if conv, ok := allocConversion(pkg, x); ok {
				site(conv)
			}
		case *ast.CompositeLit:
			if pkg.Info != nil {
				if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						site("slice literal")
					case *types.Map:
						site("map literal")
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					site("heap composite literal")
				}
			}
		}
		return true
	})
}

// walkLoopDepth visits every node under root with its syntactic loop depth:
// a for/range body is one deeper than the statement, whose init, condition,
// post statement and range operand run at the statement's own depth. visit
// returning false prunes the subtree (both users prune function literals —
// their bodies are other call-graph nodes — and cold-path calls).
func walkLoopDepth(root ast.Node, depth int, visit func(m ast.Node, depth int) bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil || !visit(m, depth) {
			return false
		}
		switch x := m.(type) {
		case *ast.ForStmt:
			for _, part := range []ast.Node{x.Init, x.Cond, x.Post} {
				if part != nil {
					walkLoopDepth(part, depth, visit)
				}
			}
			walkLoopDepth(x.Body, depth+1, visit)
			return false
		case *ast.RangeStmt:
			walkLoopDepth(x.X, depth, visit)
			walkLoopDepth(x.Body, depth+1, visit)
			return false
		}
		return true
	})
}

// isBuiltin confirms an identifier resolves to the universe-scope builtin
// (not a local redefinition); without type info it answers true.
func isBuiltin(pkg *Package, id *ast.Ident) bool {
	if pkg.Info == nil {
		return true
	}
	obj := pkg.objectOf(id)
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// allocConversion detects []byte(string) / string([]byte) conversion copies.
func allocConversion(pkg *Package, call *ast.CallExpr) (string, bool) {
	if pkg.Info == nil || len(call.Args) != 1 {
		return "", false
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || tv.Type == nil {
		return "", false
	}
	argTV, ok := pkg.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return "", false
	}
	dst, src := tv.Type.Underlying(), argTV.Type.Underlying()
	if isByteSlice(dst) && isString(src) {
		return "[]byte(string) copy", true
	}
	if isString(dst) && isByteSlice(src) {
		return "string([]byte) copy", true
	}
	return "", false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
