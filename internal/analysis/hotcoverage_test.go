package analysis

import (
	"path/filepath"
	"testing"
)

// TestHotClosureCoversBenchmarkLayers pins hotalloc's hot set to the layers
// the benchmark reports per-layer rows for (BENCHMARK.json: huffman.*,
// rangecoder.*, bitstream.*, sz.*, zfp.*, mgard.*, fpzip.*, daemon.*): the
// seven codec stages and the daemon data plane must all carry
// //pressio:hotpath marks that the call graph turns into hot roots. If a
// refactor drops a mark or renames an entry point, this fails before the
// analyzer silently stops watching that stage.
func TestHotClosureCoversBenchmarkLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads several module packages with full type information")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range []string{
		filepath.Join("internal", "huffman"),
		filepath.Join("internal", "rangecoder"),
		filepath.Join("internal", "bitstream"),
		filepath.Join("internal", "sz"),
		filepath.Join("internal", "zfp"),
		filepath.Join("internal", "mgard"),
		filepath.Join("internal", "fpzip"),
		filepath.Join("internal", "daemon"),
	} {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	g := BuildCallGraph(pkgs)

	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no //pressio:hotpath marks found in the benchmarked packages")
	}
	closure := g.ReachableStatic(roots)
	covered := map[string]bool{}
	for n := range closure {
		covered[n.Name] = true
	}

	want := []string{
		// entropy coding stages
		"huffman.Encode",
		"huffman.Decode",
		"rangecoder.(*Encoder).EncodeBit",
		"rangecoder.(*Decoder).DecodeBit",
		"rangecoder.(*Encoder).EncodeSymbol",
		"rangecoder.(*Decoder).DecodeSymbol",
		"bitstream.(*Writer).WriteBits",
		"bitstream.(*Reader).ReadBits",
		// error-bounded codec stages
		"sz.CompressSlice",
		"sz.DecompressSlice",
		"zfp.CompressSlice",
		"zfp.DecompressSlice",
		"mgard.CompressSlice",
		"mgard.DecompressSlice",
		"fpzip.CompressSlice",
		"fpzip.DecompressSlice",
		// daemon data plane (both /compress and /decompress route here)
		"daemon.(*Daemon).handleData",
	}
	for _, name := range want {
		if !covered[name] {
			t.Errorf("benchmarked layer %s is not in the hot closure; its allocations are invisible to hotalloc", name)
		}
	}
}
