package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"
)

// typeCheckSrc parses and type-checks one synthetic file.
func typeCheckSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func funcByName(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("function %q not found", name)
	return nil
}

// identCollector is a trivial may-analysis: the fact is the set of names of
// idents assigned so far. It exercises Solve's join and fixpoint behavior.
type identCollector struct{ mayFacts[string] }

func (identCollector) EntryFact() set[string] { return set[string]{} }

func (identCollector) Transfer(f set[string], n ast.Node) set[string] {
	inspectNoFuncLit(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					f = f.with(id.Name)
				}
			}
		}
		return true
	})
	return f
}

// TestSolveJoinsBranches checks that facts from both arms of a branch merge
// at the join point and that loop back edges reach a fixpoint.
func TestSolveJoinsBranches(t *testing.T) {
	src := `package p
func f(cond bool, n int) int {
	a := 1
	if cond {
		b := 2
		_ = b
	} else {
		c := 3
		_ = c
	}
	for i := 0; i < n; i++ {
		d := i
		_ = d
	}
	return a
}`
	_, f, _ := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	cfg := BuildCFG("f", fd.Body)
	res := Solve(cfg, identCollector{})
	got, ok := res.In[cfg.Exit]
	if !ok {
		t.Fatal("no fact reached exit")
	}
	for _, want := range []string{"a", "b", "c", "d", "i", "_"} {
		if !got[want] {
			t.Errorf("exit fact missing %q (got %v)", want, got)
		}
	}
}

// TestSolveUnreachableAfterReturn checks facts do not flow past a terminator.
func TestSolveUnreachableAfterReturn(t *testing.T) {
	src := `package p
func f() int {
	a := 1
	return a
}`
	_, f, _ := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	cfg := BuildCFG("f", fd.Body)
	res := Solve(cfg, identCollector{})
	for _, blk := range cfg.Blocks {
		if _, reached := res.In[blk]; blk.Kind == "unreachable" && reached {
			t.Errorf("unreachable block b%d received a fact", blk.Index)
		}
	}
}

// edgeRecorder is a toy problem with a Branch hook. Its fact is the set of
// "cond=taken" labels on the edges taken since the last use(...) call, and
// edges records every (cond, taken) pair Solve asked about.
type edgeRecorder struct {
	mayFacts[string]
	fset  *token.FileSet
	edges set[string]
}

func (*edgeRecorder) EntryFact() set[string] { return set[string]{} }

func (*edgeRecorder) Transfer(f set[string], n ast.Node) set[string] {
	if _, isUse := n.(*ast.ExprStmt); isUse {
		return set[string]{}
	}
	return f
}

func (r *edgeRecorder) Branch(f set[string], cond ast.Expr, taken bool) set[string] {
	label := fmt.Sprintf("%s=%t", renderNode(r.fset, cond), taken)
	r.edges[label] = true
	return f.with(label)
}

// TestSolveBranchEdges checks that Solve hands each edge leaving an if or
// for condition to Branch with the right polarity, that the refined fact is
// what reaches the target block, and that an infinite for and a range —
// neither of which tests a condition — have no branch edges.
func TestSolveBranchEdges(t *testing.T) {
	src := `package p
func use(string) {}
func f(a, b int, xs []int) {
	if a > 0 {
		use("then1")
	}
	use("after1")
	if a > 1 {
		use("then2")
	} else {
		use("else2")
	}
	if a > 2 {
		use("then3")
	} else if b > 3 {
		use("then4")
	} else {
		use("else4")
	}
	for i := 0; i < b; i++ {
		use("body5")
	}
	use("after5")
	for {
		use("body6")
		break
	}
	for range xs {
		use("body7")
	}
}`
	fset, f, _ := typeCheckSrc(t, src)
	cfg := BuildCFG("f", funcByName(t, f, "f").Body)
	for _, blk := range cfg.Blocks {
		if blk.Cond != nil && len(blk.Succs) != 2 {
			t.Errorf("b%d ends in %s but has %d successors", blk.Index, renderNode(fset, blk.Cond), len(blk.Succs))
		}
	}
	r := &edgeRecorder{fset: fset, edges: set[string]{}}
	res := Solve(cfg, r)
	got := map[string]string{}
	WalkFacts(cfg, r, res, func(fact set[string], n ast.Node) {
		if es, ok := n.(*ast.ExprStmt); ok {
			lit := es.X.(*ast.CallExpr).Args[0].(*ast.BasicLit)
			got[lit.Value] = strings.Join(slices.Sorted(maps.Keys(fact)), ", ")
		}
	})
	want := map[string]string{
		`"then1"`:  "a > 0=true",
		`"after1"`: "a > 0=false",
		`"then2"`:  "a > 1=true",
		`"else2"`:  "a > 1=false",
		`"then3"`:  "a > 2=true",
		`"then4"`:  "a > 2=false, b > 3=true",
		`"else4"`:  "a > 2=false, b > 3=false",
		`"body5"`:  "i < b=true",
		`"after5"`: "i < b=false",
		`"body6"`:  "",
		`"body7"`:  "",
	}
	if !maps.Equal(got, want) {
		t.Errorf("facts at each use:\n got %v\nwant %v", got, want)
	}
	wantEdges := []string{
		"a > 0=false", "a > 0=true", "a > 1=false", "a > 1=true", "a > 2=false", "a > 2=true",
		"b > 3=false", "b > 3=true", "i < b=false", "i < b=true",
	}
	if gotEdges := slices.Sorted(maps.Keys(r.edges)); !slices.Equal(gotEdges, wantEdges) {
		t.Errorf("Branch edges = %v, want %v", gotEdges, wantEdges)
	}
}

// TestReachingDefsMergeAndKill checks the two defining properties: a
// re-assignment kills the old definition on its path, and a branch join
// carries the union of surviving definitions.
func TestReachingDefsMergeAndKill(t *testing.T) {
	src := `package p
func f(cond bool) int {
	x := 1
	if cond {
		x = 2
	}
	y := x
	x = 3
	z := x
	_ = y
	return z
}`
	_, f, info := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	rd := &ReachingDefs{Info: info}
	cfg := BuildCFG("f", fd.Body)
	res := Solve(cfg, rd)

	defsAt := map[string]int{} // use line "y := x" and "z := x": defs of x
	WalkFacts(cfg, rd, res, func(fact rdFact, n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if rhs, ok := as.Rhs[0].(*ast.Ident); ok && rhs.Name == "x" {
			defsAt[lhs.Name] = len(rd.DefsOf(fact, rhs))
		}
	})
	if defsAt["y"] != 2 {
		t.Errorf("at y := x, want 2 reaching defs of x (init + branch), got %d", defsAt["y"])
	}
	if defsAt["z"] != 1 {
		t.Errorf("at z := x, want 1 reaching def of x (x = 3 kills both), got %d", defsAt["z"])
	}
}

// TestReachingDefsParams checks parameters carry their entry definition,
// marked as caller-controlled.
func TestReachingDefsParams(t *testing.T) {
	src := `package p
func f(n int) int {
	return n
}`
	_, f, info := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	var params []*types.Var
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, info.ObjectOf(name).(*types.Var))
		}
	}
	rd := &ReachingDefs{Info: info, Params: params}
	cfg := BuildCFG("f", fd.Body)
	res := Solve(cfg, rd)
	found := false
	WalkFacts(cfg, rd, res, func(fact rdFact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		id := ret.Results[0].(*ast.Ident)
		defs := rd.DefsOf(fact, id)
		if len(defs) != 1 {
			t.Fatalf("want 1 entry def of n, got %d", len(defs))
		}
		for d := range defs {
			if !d.Param {
				t.Error("entry definition of a parameter must be marked Param")
			}
		}
		found = true
	})
	if !found {
		t.Fatal("return statement not visited")
	}
}

// TestFuncUnits checks declarations and nested literals each become exactly
// one unit, and a literal passed to x.Do(...) carries the Once guard.
func TestFuncUnits(t *testing.T) {
	src := `package p
import "sync"
var once sync.Once
func a() {
	go func() { _ = 1 }()
	once.Do(func() { _ = 2 })
}
var b = func() { _ = 3 }`
	_, f, _ := typeCheckSrc(t, src)
	units := funcUnits(f)
	if len(units) != 4 {
		t.Fatalf("want 4 units (a + 2 literals + package-level literal), got %d", len(units))
	}
	guards := 0
	for _, u := range units {
		if u.OnceGuard != "" {
			guards++
			if u.OnceGuard != "once" {
				t.Errorf("OnceGuard = %q, want %q", u.OnceGuard, "once")
			}
		}
	}
	if guards != 1 {
		t.Errorf("want exactly 1 Once-guarded unit, got %d", guards)
	}
}

// TestInspectNoFuncLit checks nested literal bodies stay invisible to the
// enclosing unit's walks.
func TestInspectNoFuncLit(t *testing.T) {
	src := `package p
func f() {
	a := 1
	g := func() {
		b := 2
		_ = b
	}
	_ = a
	g()
}`
	_, f, _ := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	var seen []string
	inspectNoFuncLit(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				seen = append(seen, id.Name)
			}
		}
		return true
	})
	joined := strings.Join(seen, ",")
	if strings.Contains(joined, "b") {
		t.Errorf("walk descended into the function literal: %v", seen)
	}
	for _, want := range []string{"a", "g"} {
		if !strings.Contains(joined, want) {
			t.Errorf("walk missed %q: %v", want, seen)
		}
	}
}

// TestExprKey pins the rendered keys lock tracking relies on.
func TestExprKey(t *testing.T) {
	src := `package p
type inner struct{ mu int }
type outer struct{ in inner }
func f(o *outer, arr []outer) {
	_ = o.in.mu
	_ = (&o.in).mu
	_ = arr[0].in
}`
	_, f, _ := typeCheckSrc(t, src)
	fd := funcByName(t, f, "f")
	var keys []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		keys = append(keys, exprKey(as.Rhs[0]))
		return true
	})
	want := []string{"o.in.mu", "o.in.mu", "arr[...].in"}
	if len(keys) != len(want) {
		t.Fatalf("got %d keys %v, want %v", len(keys), keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("exprKey[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}
