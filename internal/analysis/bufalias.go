package analysis

import (
	"go/ast"
	"go/types"
)

// BufAlias enforces the buffer-ownership contract of the compression hot
// path: the caller owns the input Data it passes to Compress/Decompress, so
// a codec must neither retain a reference to it (in receiver fields or
// package-level state — the next call would overwrite a buffer the plugin
// still points at) nor return a slice aliasing it as its output (the caller
// may mutate the input after the call and silently corrupt the "compressed"
// result). The analyzer runs a flow-sensitive taint analysis over the
// function CFG: the input parameter is the taint source; view accessors
// (in.Bytes(), in.Float32s(), ...), slicing, field access, address-taking
// and the non-copying Data constructors (NewBytes, FromFloat64s, ...)
// propagate taint; element-copying operations (append into a fresh slice,
// string conversion) do not. Sinks are stores into receiver or package
// state and returns of tainted slices/pointers.
var BufAlias = &Analyzer{
	Name: "bufalias",
	Doc:  "Compress/Decompress must not retain or return references to the caller's input buffer",
	Run:  runBufAlias,
}

// wrapConstructors are the Data constructors that wrap the given backing
// storage without copying; a tainted argument taints the result.
var wrapConstructors = map[string]bool{
	"NewBytes": true, "NewMove": true,
	"FromFloat32s": true, "FromFloat64s": true,
	"FromInt32s": true, "FromInt64s": true, "FromUint64s": true,
}

func runBufAlias(pass *Pass) {
	if pass.Pkg.Info == nil {
		return // taint tracking needs object resolution
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !dispatchMethodNames[fd.Name.Name] {
				continue
			}
			analyzeBufAlias(pass, fd)
		}
	}
}

// bufAliasProblem is the may-analysis: its fact is the set of local variables
// that may alias the input buffer.
type bufAliasProblem struct {
	mayFacts[*types.Var]
	pass *Pass
	// in is the input parameter object (the taint source).
	in *types.Var
	// recv is the receiver object; stores into its fields are sinks.
	recv *types.Var
}

func (p *bufAliasProblem) EntryFact() set[*types.Var] {
	return set[*types.Var]{p.in: true}
}

func (p *bufAliasProblem) Transfer(f set[*types.Var], n ast.Node) set[*types.Var] {
	forEachBinding(n, func(b binding) {
		id, ok := b.Lhs.(*ast.Ident)
		if !ok {
			return // field/index stores are handled as sinks, not defs
		}
		v, ok := p.pass.Pkg.Info.ObjectOf(id).(*types.Var)
		if !ok {
			return
		}
		if b.Rhs != nil && p.tainted(f, b.Rhs) && pointerish(v.Type()) {
			f = f.with(v)
		} else {
			f = f.without(v)
		}
	})
	return f
}

// tainted reports whether evaluating e may yield a value sharing storage
// with the input buffer, under the current fact.
func (p *bufAliasProblem) tainted(f set[*types.Var], e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := p.pass.Pkg.Info.ObjectOf(x).(*types.Var)
		return ok && f[v]
	case *ast.ParenExpr:
		return p.tainted(f, x.X)
	case *ast.StarExpr:
		return p.tainted(f, x.X)
	case *ast.UnaryExpr:
		return x.Op.String() == "&" && p.tainted(f, x.X)
	case *ast.SliceExpr:
		return p.tainted(f, x.X)
	case *ast.IndexExpr:
		// Indexing only aliases when the element itself is a reference.
		return p.tainted(f, x.X) && pointerish(p.typeOf(x))
	case *ast.SelectorExpr:
		// Field of a tainted struct value shares its storage. A package
		// qualifier is not a value at all.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := p.pass.Pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
				return false
			}
		}
		return p.tainted(f, x.X) && pointerish(p.typeOf(x))
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if p.tainted(f, elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return p.taintedCall(f, x)
	}
	return false
}

func (p *bufAliasProblem) taintedCall(f set[*types.Var], call *ast.CallExpr) bool {
	// append copies elements into the destination: the result aliases the
	// destination, never the appended source.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		return p.tainted(f, call.Args[0])
	}
	// Conversions share backing storage for slice->slice forms ([]byte(x))
	// and copy for string(x); treat as passthrough when the result can alias.
	if p.isConversion(call) && len(call.Args) == 1 {
		return p.tainted(f, call.Args[0]) && pointerish(p.typeOf(call))
	}
	// View accessors: a method on a tainted receiver whose result is a
	// reference type returns a view of its storage (in.Bytes(), ...).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if p.tainted(f, sel.X) && pointerish(p.typeOf(call)) {
			return true
		}
	}
	// Non-copying constructors wrap their (tainted) argument.
	if wrapConstructors[calleeName(call)] {
		for _, arg := range call.Args {
			if p.tainted(f, arg) {
				return true
			}
		}
	}
	return false
}

// isConversion reports whether the call expression is a type conversion.
func (p *bufAliasProblem) isConversion(call *ast.CallExpr) bool {
	tv, ok := p.pass.Pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func (p *bufAliasProblem) typeOf(e ast.Expr) types.Type {
	tv, ok := p.pass.Pkg.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// pointerish reports whether values of t can share backing storage: nil
// (unknown) is treated as sharable so missing type info stays conservative.
// The error interface is excluded — the error result of a multi-value call
// never carries the buffer, and tainting it would flag every `return err`
// downstream of a wrapping constructor.
func pointerish(t types.Type) bool {
	if t == nil {
		return true
	}
	if t == types.Universe.Lookup("error").Type() {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		return true // a struct value may embed slices (e.g. core.Data)
	case *types.Array:
		return pointerish(u.Elem())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if pointerish(u.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func analyzeBufAlias(pass *Pass, fd *ast.FuncDecl) {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return
	}
	in, ok := pass.Pkg.Info.ObjectOf(params.List[0].Names[0]).(*types.Var)
	if !ok {
		return
	}
	var recv *types.Var
	if len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recv, _ = pass.Pkg.Info.ObjectOf(fd.Recv.List[0].Names[0]).(*types.Var)
	}
	problem := &bufAliasProblem{pass: pass, in: in, recv: recv}
	cfg := BuildCFG(fd.Name.Name, fd.Body)
	res := Solve(cfg, problem)
	scope := pass.Pkg.Types.Scope()

	WalkFacts(cfg, problem, res, func(f set[*types.Var], n ast.Node) {
		forEachBinding(n, func(b binding) {
			if b.Rhs == nil || !problem.tainted(f, b.Rhs) {
				return
			}
			root := rootIdent(b.Lhs)
			if root == nil {
				return
			}
			v, isVar := pass.Pkg.Info.ObjectOf(root).(*types.Var)
			if !isVar {
				return
			}
			// Rebinding a LOCAL name is propagation (the transfer
			// function tracks it); stores rooted at the receiver or
			// at package scope let the buffer outlive the call.
			switch {
			case recv != nil && v == recv && root != b.Lhs:
				pass.Reportf(n.Pos(),
					"%s stores a reference to the caller's input buffer in receiver state: copy the data, the caller owns and may reuse it",
					fd.Name.Name)
			case v.Parent() == scope:
				pass.Reportf(n.Pos(),
					"%s stores a reference to the caller's input buffer in package-level %s: copy the data, the caller owns and may reuse it",
					fd.Name.Name, root.Name)
			}
		})
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, result := range ret.Results {
				if problem.tainted(f, result) && pointerish(problem.typeOf(result)) {
					pass.Reportf(result.Pos(),
						"%s returns a value aliasing the caller's input buffer: the caller may mutate the input and corrupt it",
						fd.Name.Name)
				}
			}
		}
	})
}
