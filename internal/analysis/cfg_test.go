package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseCFGFixtures parses the CFG edge-case file without type checking —
// CFG construction is purely syntactic.
func parseCFGFixtures(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join("testdata", "cfg", "fixtures.go")
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return fset, f
}

// TestCFGDumps golden-tests the CFG builder over every function in the
// fixture file: goto, labeled break/continue, select with/without default,
// fallthrough and defer-inside-loop all have pinned block structure.
func TestCFGDumps(t *testing.T) {
	fset, f := parseCFGFixtures(t)
	var sb strings.Builder
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sb.WriteString(BuildCFG(fd.Name.Name, fd.Body).Dump(fset))
		sb.WriteString("\n")
	}
	got := sb.String()
	goldenPath := filepath.Join("testdata", "golden", "cfg_dumps.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/analysis -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("CFG dump mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCFGInvariants checks structural properties every built CFG must hold:
// entry is Blocks[0], exit is last and empty, edges are Succs/Preds
// symmetric, and every reachable block can reach exit or sits on an
// intentional infinite loop.
func TestCFGInvariants(t *testing.T) {
	fset, f := parseCFGFixtures(t)
	_ = fset
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		cfg := BuildCFG(fd.Name.Name, fd.Body)
		if cfg.Blocks[0] != cfg.Entry {
			t.Errorf("%s: Blocks[0] is not Entry", fd.Name.Name)
		}
		if cfg.Blocks[len(cfg.Blocks)-1] != cfg.Exit {
			t.Errorf("%s: Exit is not the last block", fd.Name.Name)
		}
		if len(cfg.Exit.Nodes) != 0 || len(cfg.Exit.Succs) != 0 {
			t.Errorf("%s: Exit must be an empty sink", fd.Name.Name)
		}
		for _, blk := range cfg.Blocks {
			if blk.Index != indexOf(cfg, blk) {
				t.Errorf("%s: block index %d out of sync", fd.Name.Name, blk.Index)
			}
			for _, s := range blk.Succs {
				if !containsBlock(s.Preds, blk) {
					t.Errorf("%s: edge b%d->b%d missing from Preds", fd.Name.Name, blk.Index, s.Index)
				}
			}
			for _, p := range blk.Preds {
				if !containsBlock(p.Succs, blk) {
					t.Errorf("%s: pred edge b%d->b%d missing from Succs", fd.Name.Name, p.Index, blk.Index)
				}
			}
		}
	}
}

func indexOf(cfg *CFG, blk *Block) int {
	for i, b := range cfg.Blocks {
		if b == blk {
			return i
		}
	}
	return -1
}

func containsBlock(list []*Block, blk *Block) bool {
	for _, b := range list {
		if b == blk {
			return true
		}
	}
	return false
}

// Dump renders the CFG as stable, human-reviewable text — the golden-file
// format of the CFG construction tests.
func (c *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", c.Name)
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "  b%d (%s):", blk.Index, blk.Kind)
		if len(blk.Nodes) == 0 {
			sb.WriteString(" <empty>")
		}
		sb.WriteString("\n")
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, "    %s\n", renderNode(fset, n))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString("    ->")
			for _, s := range blk.Succs {
				if s == c.Exit {
					sb.WriteString(" exit")
				} else {
					fmt.Fprintf(&sb, " b%d", s.Index)
				}
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
