package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// ErrFlow enforces the output-buffer error contract of the compression API:
// when Compress/Decompress (or any helper taking an `out`/`dst` pointer
// parameter and returning error) fails, the caller must be able to discard
// or retry — so no path may first mutate the output buffer and then return a
// non-nil error, leaving the caller holding partially-written output. The
// check runs two dataflow problems over the same CFG in lockstep: a
// may-analysis collecting the output-buffer write sites reachable so far,
// and reaching definitions to decide whether the returned error expression
// can be non-nil (a `return nil`, or an error variable whose every reaching
// definition is nil, is safe). Passing out to another function is not
// treated as a write: the callee is analyzed on its own.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "error-returning paths must not leave a partially-written output buffer",
	Run:  runErrFlow,
}

// readOnlyDataMethods are the Data accessors that do not mutate the
// receiver; any other method call on the output parameter counts as a write.
var readOnlyDataMethods = map[string]bool{
	"DType": true, "Dims": true, "NumDims": true, "Len": true,
	"ByteLen": true, "HasData": true, "Bytes": true, "String": true,
	"Equal": true, "Clone": true, "CastTo": true, "AsFloat64s": true,
	"Float32s": true, "Float64s": true,
	"Int8s": true, "Int16s": true, "Int32s": true, "Int64s": true,
	"Uint8s": true, "Uint16s": true, "Uint32s": true, "Uint64s": true,
}

// outParamNames are the conventional names of the caller-visible output
// parameter.
var outParamNames = map[string]bool{"out": true, "dst": true}

func runErrFlow(pass *Pass) {
	if pass.Pkg.Info == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out := errFlowOutParam(pass, fd)
			if out == nil || !fdReturnsError(fd) {
				continue
			}
			analyzeErrFlow(pass, fd, out)
		}
	}
}

// errFlowOutParam finds a pointer-typed parameter named out/dst.
func errFlowOutParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if !outParamNames[name.Name] {
				continue
			}
			v, ok := pass.Pkg.Info.ObjectOf(name).(*types.Var)
			if !ok {
				continue
			}
			if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
				return v
			}
		}
	}
	return nil
}

// fdReturnsError reports whether fd's final result is the error type.
func fdReturnsError(fd *ast.FuncDecl) bool {
	results := fd.Type.Results
	if results == nil || len(results.List) == 0 {
		return false
	}
	last := results.List[len(results.List)-1].Type
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "error"
}

// outWriteProblem is the may-analysis: its fact is the set of source
// positions of output-buffer writes that may have executed.
type outWriteProblem struct {
	mayFacts[token.Pos]
	pass *Pass
	out  *types.Var
}

func (p *outWriteProblem) EntryFact() set[token.Pos] { return set[token.Pos]{} }

func (p *outWriteProblem) Transfer(f set[token.Pos], n ast.Node) set[token.Pos] {
	inspectNoFuncLit(n, func(m ast.Node) bool {
		if pos, ok := p.writeAt(m); ok {
			f = f.with(pos)
		}
		return true
	})
	return f
}

// writeAt reports whether node m mutates the output parameter.
func (p *outWriteProblem) writeAt(m ast.Node) (token.Pos, bool) {
	switch st := m.(type) {
	case *ast.CallExpr:
		sel, ok := st.Fun.(*ast.SelectorExpr)
		if !ok || readOnlyDataMethods[sel.Sel.Name] {
			return 0, false
		}
		if p.isOut(sel.X) {
			return st.Pos(), true
		}
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			if id, isIdent := lhs.(*ast.Ident); isIdent {
				// Rebinding the local name is not a buffer write; a write
				// THROUGH it (*out = ..., out.f = ...) is.
				if p.varOf(id) == p.out {
					continue
				}
			}
			if root := rootIdent(lhs); root != nil && p.varOf(root) == p.out {
				return lhs.Pos(), true
			}
		}
	case *ast.IncDecStmt:
		if root := rootIdent(st.X); root != nil && p.varOf(root) == p.out {
			return st.Pos(), true
		}
	}
	return 0, false
}

func (p *outWriteProblem) isOut(e ast.Expr) bool {
	root := rootIdent(e)
	return root != nil && p.varOf(root) == p.out
}

func (p *outWriteProblem) varOf(id *ast.Ident) *types.Var {
	v, _ := p.pass.Pkg.Info.ObjectOf(id).(*types.Var)
	return v
}

func analyzeErrFlow(pass *Pass, fd *ast.FuncDecl, out *types.Var) {
	cfg := BuildCFG(fd.Name.Name, fd.Body)
	writes := &outWriteProblem{pass: pass, out: out}
	rd := &ReachingDefs{Info: pass.Pkg.Info, Params: paramVars(pass, fd)}
	wRes := Solve(cfg, writes)
	rdRes := Solve(cfg, rd)

	// Walk both problems in lockstep: at each return, combine the write set
	// (may-analysis) with the error expression's reaching definitions.
	for _, blk := range cfg.Blocks {
		wFact, okW := wRes.In[blk]
		rdFact, okR := rdRes.In[blk]
		if !okW || !okR {
			continue
		}
		for _, n := range blk.Nodes {
			inspectNoFuncLit(n, func(m ast.Node) bool {
				ret, ok := m.(*ast.ReturnStmt)
				if !ok || len(ret.Results) == 0 {
					return true
				}
				errExpr := ret.Results[len(ret.Results)-1]
				if len(wFact) == 0 || !errMaybeNonNil(rd, rdFact, errExpr) {
					return true
				}
				first := pass.Pkg.Fset.Position(slices.Min(slices.Collect(maps.Keys(wFact))))
				pass.Reportf(ret.Pos(),
					"%s returns a possibly non-nil error after writing %s (line %d): error paths must not leave partially-written output",
					fd.Name.Name, out.Name(), first.Line)
				return true
			})
			wFact = writes.Transfer(wFact, n)
			rdFact = rd.Transfer(rdFact, n)
		}
	}
}

// errMaybeNonNil decides whether the returned error expression can evaluate
// to a non-nil error at this point: nil literals are safe, and an error
// variable is safe when every definition reaching the return is nil (either
// an explicit nil assignment or a zero-value var declaration). Anything
// else — fresh calls, fields, parameters — is assumed fallible.
func errMaybeNonNil(rd *ReachingDefs, fact rdFact, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return errMaybeNonNil(rd, fact, x.X)
	case *ast.Ident:
		if x.Name == "nil" {
			return false
		}
		defs := rd.DefsOf(fact, x)
		if len(defs) == 0 {
			return true // parameter or untracked: assume fallible
		}
		for d := range defs {
			if d.Rhs == nil {
				// var err error with no initializer is the zero value nil; a
				// parameter's entry definition is caller-controlled and a
				// ++/-- def is not an error at all (conservatively fallible).
				if d.Param || d.Pos != defDeclPos(rd, x) {
					return true
				}
				continue
			}
			if id, ok := d.Rhs.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		}
		return false
	}
	return true
}

// defDeclPos returns the declaration position of id's variable, which a
// zero-value `var` definition shares; token.NoPos when unresolved.
func defDeclPos(rd *ReachingDefs, id *ast.Ident) token.Pos {
	v := rd.varOf(id)
	if v == nil {
		return token.NoPos
	}
	return v.Pos()
}

// paramVars lists the declared parameter (and receiver) objects of fd.
func paramVars(pass *Pass, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pass.Pkg.Info.ObjectOf(name).(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}
