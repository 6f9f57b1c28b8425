package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function summaries bottom-up over the call graph's
// SCC condensation. A summary answers, for one function body, the questions
// the interprocedural analyzers ask at call sites: can this call block (and
// why), does it allocate (and where), does it spawn goroutines, does it
// take or release locks, does it see a context. Within an SCC the booleans
// are monotone, so the computation iterates the bottom-up order to a
// fixpoint; calls that leave the module (standard library) are classified by
// the curated tables below instead of a summary.

// FuncSummary is the interprocedural abstract of one function body.
type FuncSummary struct {
	// SpawnsGoroutine: the body (not its callees) contains a go statement.
	SpawnsGoroutine bool

	// Blocks: a call may not return promptly — channel operations, I/O,
	// sync waits, or a Compress/Decompress dispatch (whose cost is the
	// codec's, unbounded from the caller's perspective). Propagates through
	// every call edge except go statements (the spawner does not wait).
	Blocks   bool
	BlockWhy string

	// BlocksForever: the stronger property goroutine-leak analysis needs —
	// the body can block indefinitely on external events (channel ops,
	// selects without default, I/O, sync.WaitGroup.Wait). Propagates only
	// through static call edges: dynamic dispatch would smear one slow
	// implementation over every caller.
	BlocksForever   bool
	BlockForeverWhy string

	// Allocates: the body has a non-exempt allocation site, or reaches one
	// through module-local calls. AllocVia is the call chain ("WriteBits:
	// append grows w.buf"), empty for own sites.
	Allocates bool
	AllocWhat string
	AllocPos  token.Pos
	AllocVia  string

	// AcquiresLock / ReleasesLock: the body performs mutex operations.
	AcquiresLock bool
	ReleasesLock bool

	// HasCtxParam / UsesCtx: the declared signature takes a context.Context,
	// and the body actually reads some context value (its own parameter or a
	// captured one).
	HasCtxParam bool
	UsesCtx     bool

	// OwnAllocs lists the body's non-exempt allocation sites for hotalloc.
	OwnAllocs []AllocSite

	// TaintOut is the taint mask of each result value, over the function's
	// own parameter bits plus the source bit; TaintIn records the sinks each
	// parameter can reach. Both are backfilled by ComputeTaint (taint.go).
	TaintOut []uint64
	TaintIn  []TaintSinkRef
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

// blockingStdPkgs are the packages whose exported calls are treated as I/O
// that can stall indefinitely (sockets, pipes, files, subprocesses).
var blockingStdPkgs = map[string]bool{
	"net": true, "net/http": true, "os": true, "io": true,
	"bufio": true, "os/exec": true, "syscall": true, "io/fs": true,
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
}

// dispatchMethodNames are the generic-compression entry points: a call to
// any method with one of these names is a codec dispatch whose duration is
// the plugin's business — holding a lock across one stalls every peer for as
// long as the codec (or the external process behind it) takes.
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
// callee is a named function or method (nil for function values/literals).
func calleeObject(pkg *Package, call *ast.CallExpr) *types.Func {
	if pkg.Info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.objectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.objectOf(fun.Sel).(*types.Func)
		return fn
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := pkg.objectOf(id).(*types.Func)
			return fn
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := pkg.objectOf(id).(*types.Func)
			return fn
		}
	}
	return nil
}

// stdlibBlocking classifies a call that leaves the module: ("reason", bounded)
// where bounded=false means it can stall indefinitely.
func stdlibBlocking(fn *types.Func) (reason string, forever bool, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false, false
	}
	q := qualifiedName(fn)
	switch q {
	case "time.Sleep":
		return "time.Sleep", false, true
	}
	if fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
		return "sync wait", true, true
	}
	if blockingStdPkgs[fn.Pkg().Path()] && !nonBlockingStdFuncs[q] {
		return q + " (I/O)", true, true
	}
	return "", false, false
}

// isDispatchCall reports whether the call is a compressor dispatch: a method
// call named Compress/Decompress/CompressImpl/DecompressImpl. Matching is by
// name so fixture packages can model dispatch without importing
// internal/core; plain functions with those names (not methods) are exempt.
func isDispatchCall(pkg *Package, call *ast.CallExpr) bool {
	// Package-qualified forms (core.Compress(c, in)) count too: the helper
	// forwards straight to the interface method.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && dispatchMethodNames[sel.Sel.Name]
}

// isColdPathCall reports error-construction calls whose subtree the
// allocation walker skips.
func isColdPathCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeObject(pkg, call)
	if fn == nil {
		return false
	}
	return coldPathFuncs[qualifiedName(fn)]
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
	fn := calleeObject(pkg, call)
	if fn == nil {
		return false
	}
	q := qualifiedName(fn)
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
	if n.Decl != nil && n.Decl.Type.Params != nil && pkg.Info != nil {
		for _, field := range n.Decl.Type.Params.List {
			if tv, ok := pkg.Info.Types[field.Type]; ok && tv.Type != nil && isContextType(tv.Type) {
				sum.HasCtxParam = true
			}
		}
	}
	if n.Lit != nil && n.Lit.Type.Params != nil && pkg.Info != nil {
		for _, field := range n.Lit.Type.Params.List {
			if tv, ok := pkg.Info.Types[field.Type]; ok && tv.Type != nil && isContextType(tv.Type) {
				sum.HasCtxParam = true
			}
		}
	}

	block := func(why string, forever bool) {
		if !sum.Blocks {
			sum.Blocks, sum.BlockWhy = true, why
		}
		if forever && !sum.BlocksForever {
			sum.BlocksForever, sum.BlockForeverWhy = true, why
		}
	}

	// nonBlockingComms collects the comm statements of selects WITH a
	// default clause: those channel operations never block.
	nonBlockingComms := map[ast.Stmt]bool{}
	inspectNoFuncLit(n.Body, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlockingComms[cc.Comm] = true
				}
			}
		}
		return true
	})

	walkAlloc(n, func(site AllocSite) {
		sum.OwnAllocs = append(sum.OwnAllocs, site)
		if !sum.Allocates {
			sum.Allocates, sum.AllocWhat, sum.AllocPos = true, site.What, site.Pos
		}
	})

	inspectNoFuncLit(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			sum.SpawnsGoroutine = true
		case *ast.SendStmt:
			if !nonBlockingComms[x] {
				block("channel send", true)
			}
		case *ast.ExprStmt:
			// receives used as statements are covered by the UnaryExpr case
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				block("channel receive", true)
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				block("select without default", true)
			}
		case *ast.RangeStmt:
			if pkg.Info != nil {
				if tv, ok := pkg.Info.Types[x.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						block("range over channel", true)
					}
				}
			}
		case *ast.CallExpr:
			if op, ok := classifyLockCall(pkg, x); ok {
				if op.acquire {
					sum.AcquiresLock = true
				} else {
					sum.ReleasesLock = true
				}
				return true
			}
			fn := calleeObject(pkg, x)
			if why, forever, ok := stdlibBlocking(fn); ok {
				block(why, forever)
			} else if isDispatchCall(pkg, x) {
				block("compressor dispatch", false)
			}
		case *ast.Ident:
			if pkg.Info != nil {
				if obj := pkg.objectOf(x); obj != nil {
					if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
						sum.UsesCtx = true
					}
				}
			}
		}
		return true
	})
	return sum
}

// sendInsideGo reports nothing here — buffered-send exemptions are resolved
// by the goroutineleak analyzer, which sees both the spawning and spawned
// scopes; the summary stays conservative.

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
		if callee.Blocks && !sum.Blocks {
			sum.Blocks = true
			sum.BlockWhy = "call to " + e.Callee.ShortName() + " (" + callee.BlockWhy + ")"
			changed = true
		}
		if callee.BlocksForever && !e.Dynamic && !sum.BlocksForever {
			sum.BlocksForever = true
			sum.BlockForeverWhy = "call to " + e.Callee.ShortName() + " (" + callee.BlockForeverWhy + ")"
			changed = true
		}
		if callee.Allocates && !sum.Allocates {
			sum.Allocates = true
			sum.AllocWhat = callee.AllocWhat
			sum.AllocPos = callee.AllocPos
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
	inspectNoFuncLit(n.Body, func(m ast.Node) bool {
		asg, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if i < len(asg.Lhs) {
				if lid, ok := asg.Lhs[i].(*ast.Ident); ok {
					prealloc[lid.Name] = true
				}
			}
		}
		return true
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
	var ft *ast.FuncType
	switch {
	case n.Decl != nil:
		ft = n.Decl.Type
	case n.Lit != nil:
		ft = n.Lit.Type
	}
	if ft != nil && ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				paramNames[name.Name] = true
			}
		}
	}

	// selfAppends maps the append CallExpr -> true when it is the exempt
	// x = append(x, ...) shape with x preallocated or a receiver field.
	exemptAppend := map[*ast.CallExpr]bool{}
	inspectNoFuncLit(n.Body, func(m ast.Node) bool {
		asg, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if i >= len(asg.Lhs) {
				continue
			}
			if exprKey(asg.Lhs[i]) == "" || exprKey(asg.Lhs[i]) != exprKey(call.Args[0]) {
				continue
			}
			switch lhs := asg.Lhs[i].(type) {
			case *ast.SelectorExpr:
				if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && recvNames[base.Name] {
					exemptAppend[call] = true // amortized owned-buffer growth
				}
			case *ast.Ident:
				if prealloc[lhs.Name] || paramNames[lhs.Name] {
					exemptAppend[call] = true // preallocated, or builder idiom
				}
			}
		}
		return true
	})

	var walk func(m ast.Node, loopDepth int)
	walk = func(root ast.Node, loopDepth int) {
		ast.Inspect(root, func(m ast.Node) bool {
			if m == nil || m == root {
				return true
			}
			switch x := m.(type) {
			case *ast.FuncLit:
				visit(AllocSite{Pos: x.Pos(), What: "closure", InLoop: loopDepth > 0})
				return false // its body is another node
			case *ast.ForStmt:
				if x.Init != nil {
					walk(x.Init, loopDepth)
				}
				if x.Cond != nil {
					walk(x.Cond, loopDepth)
				}
				if x.Post != nil {
					walk(x.Post, loopDepth)
				}
				walk(x.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(x.X, loopDepth)
				walk(x.Body, loopDepth+1)
				return false
			case *ast.CallExpr:
				if isColdPathCall(pkg, x) {
					return false // error construction: cold path
				}
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					switch id.Name {
					case "make":
						if isBuiltin(pkg, id) {
							visit(AllocSite{Pos: x.Pos(), What: "make", InLoop: loopDepth > 0})
						}
					case "new":
						if isBuiltin(pkg, id) {
							visit(AllocSite{Pos: x.Pos(), What: "new", InLoop: loopDepth > 0})
						}
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
						if isBuiltin(pkg, id) && !exempt {
							visit(AllocSite{Pos: x.Pos(), What: "append growth", InLoop: loopDepth > 0})
						}
					}
				}
				if conv, ok := allocConversion(pkg, x); ok {
					visit(AllocSite{Pos: x.Pos(), What: conv, InLoop: loopDepth > 0})
				}
			case *ast.CompositeLit:
				if pkg.Info != nil {
					if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil {
						switch tv.Type.Underlying().(type) {
						case *types.Slice:
							visit(AllocSite{Pos: x.Pos(), What: "slice literal", InLoop: loopDepth > 0})
						case *types.Map:
							visit(AllocSite{Pos: x.Pos(), What: "map literal", InLoop: loopDepth > 0})
						}
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						visit(AllocSite{Pos: x.Pos(), What: "heap composite literal", InLoop: loopDepth > 0})
					}
				}
			}
			return true
		})
	}
	walk(n.Body, 0)
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
