package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// This file builds intraprocedural control-flow graphs over go/ast function
// bodies. The CFG is the substrate the dataflow solver (dataflow.go) runs
// on: each basic block holds the statements and guard expressions executed
// in order, and edges model every way control can leave them — structured
// flow (if/for/range/switch/select), unstructured flow (goto, labeled
// break/continue, fallthrough), and function exit (return and falling off
// the end both reach the synthetic Exit block). A block ending in an if or for
// condition records it, and its two out-edges are ordered true then false, so
// the solver can refine facts per edge. Function literals are NOT
// inlined: a FuncLit inside a statement stays an opaque expression here and
// is analyzed as its own function unit (see funcUnits in dataflow.go),
// because its body runs at another time (or never).

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Name labels the function for dumps and diagnostics ("CompressImpl",
	// "func literal at plugin.go:42", ...).
	Name string
	// Blocks lists every block; Blocks[0] is the entry and the Exit block
	// is always last. Order is deterministic construction order.
	Blocks []*Block
	// Entry is where execution starts (== Blocks[0]).
	Entry *Block
	// Exit is the synthetic sink every return statement and the fall-off-end
	// path flow into. It holds no statements. Deferred calls conceptually run
	// here; analyses that care consult the DeferStmt nodes seen in flow order.
	Exit *Block
}

// Block is one basic block: statements executed strictly in order with no
// internal control transfer. Guard expressions (if/for conditions, switch
// tags, case expression lists) appear as nodes of the block that evaluates
// them.
type Block struct {
	Index int
	// Kind is a human-readable role label ("entry", "if.then", "for.body",
	// "select.default", "label.retry", "exit", ...) used by dumps.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Cond is the if or for condition the block ends in, nil otherwise.
	// When set, Succs[0] is the edge taken when it is true and Succs[1] the
	// edge taken when it is false.
	Cond ast.Expr
}

// addEdge links b -> s, keeping Preds in sync.
func addEdge(b, s *Block) {
	for _, old := range b.Succs {
		if old == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// cfgBuilder carries the state of one CFG construction.
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// frames is the stack of enclosing breakable/continuable constructs.
	frames []cfgFrame
	// labels maps label names to their target blocks; goto to a forward
	// label creates the block eagerly and the LabeledStmt adopts it.
	labels map[string]*Block
	// fallthroughTo is the next case-clause block while a switch clause
	// body is being built.
	fallthroughTo *Block
}

// cfgFrame is one enclosing loop/switch/select on the builder stack.
type cfgFrame struct {
	label string
	brk   *Block // break target
	cont  *Block // continue target; nil for switch/select frames
}

// BuildCFG constructs the CFG of a function body. name labels the graph;
// body may be nil (declared-only functions), yielding a trivial CFG.
func BuildCFG(name string, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{Name: name, Exit: &Block{Kind: "exit"}},
		labels: make(map[string]*Block),
	}
	b.cur = b.newBlock("entry")
	b.cfg.Entry = b.cur
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body reaches Exit.
	addEdge(b.cur, b.cfg.Exit)
	b.prune()
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// dead starts a fresh unreachable block for statements after a terminator.
func (b *cfgBuilder) dead() {
	b.cur = b.newBlock("unreachable")
}

// prune drops unreachable empty blocks (artifacts of terminators with no
// trailing dead code) and renumbers. Blocks holding dead statements are
// kept so dumps show them.
func (b *cfgBuilder) prune() {
	kept := b.cfg.Blocks[:0]
	for _, blk := range b.cfg.Blocks {
		if blk != b.cfg.Entry && len(blk.Preds) == 0 && len(blk.Nodes) == 0 && len(blk.Succs) == 0 {
			continue
		}
		blk.Index = len(kept)
		kept = append(kept, blk)
	}
	b.cfg.Blocks = kept
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt builds one statement. pendingLabel is the label attached to the
// statement by an enclosing LabeledStmt ("" for unlabeled), consumed by the
// loop/switch/select constructs so labeled break/continue resolve.
func (b *cfgBuilder) stmt(s ast.Stmt, pendingLabel string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, pendingLabel)
	case *ast.RangeStmt:
		b.rangeStmt(st, pendingLabel)
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		if st.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, st.Tag)
		}
		b.caseClauses(st.Body, pendingLabel, "switch", true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		b.cur.Nodes = append(b.cur.Nodes, st.Assign)
		b.caseClauses(st.Body, pendingLabel, "typeswitch", false)
	case *ast.SelectStmt:
		b.selectStmt(st, pendingLabel)
	case *ast.LabeledStmt:
		target := b.labelBlock(st.Label.Name)
		addEdge(b.cur, target)
		b.cur = target
		b.stmt(st.Stmt, st.Label.Name)
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, st)
		addEdge(b.cur, b.cfg.Exit)
		b.dead()
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.EmptyStmt:
		// nothing
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt: straight-line nodes. DeferStmt stays a node so
		// transfer functions observe registration in flow order.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// labelBlock returns (creating on first use, e.g. by a forward goto) the
// block a label names.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	b.cur.Nodes = append(b.cur.Nodes, st.Cond)
	cond := b.cur
	cond.Cond = st.Cond
	then := b.newBlock("if.then")
	addEdge(cond, then)
	b.cur = then
	b.stmtList(st.Body.List)
	thenEnd := b.cur
	done := b.newBlock("if.done")
	if st.Else != nil {
		els := b.newBlock("if.else")
		addEdge(cond, els)
		b.cur = els
		b.stmt(st.Else, "")
		addEdge(b.cur, done)
	} else {
		addEdge(cond, done)
	}
	addEdge(thenEnd, done)
	b.cur = done
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	head := b.newBlock("for.head")
	addEdge(b.cur, head)
	if st.Cond != nil {
		head.Nodes = append(head.Nodes, st.Cond)
		head.Cond = st.Cond
	}
	body := b.newBlock("for.body")
	addEdge(head, body)
	done := b.newBlock("for.done")
	if st.Cond != nil {
		addEdge(head, done)
	}
	cont := head
	var post *Block
	if st.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: done, cont: cont})
	b.cur = body
	b.stmtList(st.Body.List)
	addEdge(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	if post != nil {
		b.cur = post
		b.stmt(st.Post, "")
		addEdge(b.cur, head)
	}
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	addEdge(b.cur, head)
	// Model the per-iteration binding as an assignment node so reaching
	// definitions and taint see Key/Value defined from the ranged operand.
	// Child expressions are the original AST nodes, so positions and type
	// information resolve normally.
	var lhs []ast.Expr
	if st.Key != nil {
		lhs = append(lhs, st.Key)
	}
	if st.Value != nil {
		lhs = append(lhs, st.Value)
	}
	if len(lhs) > 0 && st.Tok != token.ILLEGAL {
		head.Nodes = append(head.Nodes, &ast.AssignStmt{Lhs: lhs, Tok: st.Tok, TokPos: st.For, Rhs: []ast.Expr{st.X}})
	} else {
		head.Nodes = append(head.Nodes, st.X)
	}
	body := b.newBlock("range.body")
	addEdge(head, body)
	done := b.newBlock("range.done")
	addEdge(head, done)
	b.frames = append(b.frames, cfgFrame{label: label, brk: done, cont: head})
	b.cur = body
	b.stmtList(st.Body.List)
	addEdge(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// caseClauses builds the shared switch/type-switch clause structure.
// allowFallthrough wires `fallthrough` to the next clause body.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, label, kindPrefix string, allowFallthrough bool) {
	dispatch := b.cur
	done := b.newBlock(kindPrefix + ".done")
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		clauses = append(clauses, s.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := kindPrefix + ".case"
		if cc.List == nil {
			kind = kindPrefix + ".default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		addEdge(dispatch, blocks[i])
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	if !hasDefault {
		addEdge(dispatch, done)
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: done})
	savedFT := b.fallthroughTo
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.fallthroughTo = nil
		if allowFallthrough && i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.stmtList(cc.Body)
		addEdge(b.cur, done)
	}
	b.fallthroughTo = savedFT
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, label string) {
	dispatch := b.cur
	done := b.newBlock("select.done")
	b.frames = append(b.frames, cfgFrame{label: label, brk: done})
	for _, s := range st.Body.List {
		cc := s.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		addEdge(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm, "")
		}
		b.stmtList(cc.Body)
		addEdge(b.cur, done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	// A select with no clauses blocks forever; control never continues.
	if len(st.Body.List) == 0 {
		b.dead()
		return
	}
	b.cur = done
}

func (b *cfgBuilder) branchStmt(st *ast.BranchStmt) {
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				addEdge(b.cur, f.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				addEdge(b.cur, f.cont)
				break
			}
		}
	case token.GOTO:
		if label != "" {
			addEdge(b.cur, b.labelBlock(label))
		}
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			addEdge(b.cur, b.fallthroughTo)
		}
	}
	b.dead()
}

// renderNode prints a node as a single line of source-like text.
func renderNode(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}
