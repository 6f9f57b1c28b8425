package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadTaintCase loads one fixture tree and runs the full taint pipeline over
// it, returning the info plus a name->node lookup.
func loadTaintCase(t *testing.T, name string) (*TaintInfo, map[string]*FuncNode) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	caseDir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand(caseDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	graph := BuildCallGraph(pkgs)
	ti := ComputeTaint(graph)
	byName := make(map[string]*FuncNode)
	for _, n := range graph.Nodes {
		byName[n.Name] = n
	}
	return ti, byName
}

// TestTaintOutPropagatesParamMask: a helper that computes its result purely
// from a parameter must summarize that dependency, so callers can compose
// taint across the call.
func TestTaintOutPropagatesParamMask(t *testing.T) {
	ti, byName := loadTaintCase(t, "untrustedalloc_bad")
	n := byName["untrustedalloc_bad.parseCount"]
	if n == nil {
		t.Fatal("parseCount node missing")
	}
	tn := ti.nodes[n]
	if tn == nil || len(tn.out) != 1 {
		t.Fatalf("parseCount: want 1 result mask, got %+v", tn)
	}
	if tn.out[0]&taintParamBit(0) == 0 {
		t.Errorf("parseCount result mask %b does not carry param 0", tn.out[0])
	}
}

// TestDecodeEntryRootsByteSliceParams: Decompress-family entry points root
// their []byte parameters, and the rooting flows through call arguments to
// helpers that never see the stream themselves.
func TestDecodeEntryRootsByteSliceParams(t *testing.T) {
	ti, byName := loadTaintCase(t, "untrustedalloc_bad")
	entry := ti.nodes[byName["untrustedalloc_bad.Decompress"]]
	if entry == nil || entry.rooted&taintParamBit(0) == 0 {
		t.Fatalf("Decompress param 0 not rooted: %+v", entry)
	}
	helper := ti.nodes[byName["untrustedalloc_bad.grow"]]
	if helper == nil || helper.rooted&taintParamBit(1) == 0 {
		t.Fatalf("grow param n not rooted through the call chain: %+v", helper)
	}
	if !strings.Contains(helper.rootWhy, "DecompressImpl") {
		t.Errorf("grow rootWhy = %q, want the DecompressImpl call chain", helper.rootWhy)
	}
}

// TestTaintInRecordsSinkRefs: a helper's recorded sinks must name the
// parameter and sink kind, so findings can print the missing check at the
// right place.
func TestTaintInRecordsSinkRefs(t *testing.T) {
	ti, byName := loadTaintCase(t, "untrustedalloc_bad")
	n := byName["untrustedalloc_bad.grow"]
	tn := ti.nodes[n]
	if tn == nil || len(tn.sinks) == 0 {
		t.Fatalf("grow: no sinks recorded")
	}
	found := false
	for _, s := range tn.sinks {
		if s.Kind == TaintAlloc && s.Mask&taintParamBit(1) != 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("grow: no TaintAlloc sink over param n; sinks %+v", tn.sinks)
	}
}

// TestSanitizersKillSinkMasks: the suppressed fixture repeats the bad
// shapes behind recognized guards, so no sink there may be runtime-tainted.
func TestSanitizersKillSinkMasks(t *testing.T) {
	for _, name := range []string{"untrustedalloc_suppressed", "untrustedloop_suppressed", "untrustedindex_suppressed", "taintsan_accepted"} {
		ti, _ := loadTaintCase(t, name)
		for _, n := range ti.Graph.Nodes {
			tn := ti.nodes[n]
			if tn == nil {
				continue
			}
			if name == "untrustedalloc_suppressed" && strings.HasSuffix(n.Name, "DecompressSlice") {
				// Waived by //lint:ignore at the driver layer: the engine
				// still sees the sink as tainted, and must.
				continue
			}
			for _, s := range tn.sinks {
				if ti.runtimeTainted(s.Mask, tn) {
					t.Errorf("%s: %s: sink %q (%v) still runtime-tainted", name, n.Name, s.Expr, s.Kind)
				}
			}
		}
	}
}

// TestInterfaceDispatchStaysNarrow: a method selected through an embedded
// interface (io.ReadCloser's Close comes from io.Closer) must resolve
// against the receiver expression's own interface, not the embedded one —
// otherwise every Close in the module becomes a callee and taint leaks into
// unrelated packages (the stream-writer contagion this fixes).
func TestInterfaceDispatchStaysNarrow(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, path := range []string{"internal/lossless", "clients/pressio/writer"} {
		pkg, err := loader.LoadDir(filepath.Join(root, path))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	graph := BuildCallGraph(pkgs)
	for _, n := range graph.Nodes {
		if !strings.HasSuffix(n.Name, "lossless.Inflate") {
			continue
		}
		for _, e := range n.Calls {
			if strings.Contains(e.Callee.Name, "(*Writer).Close") {
				t.Errorf("Inflate's r.Close() resolved to %s: embedded-interface dispatch is too wide", e.Callee.Name)
			}
		}
	}
}
