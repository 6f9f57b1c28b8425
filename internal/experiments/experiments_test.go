package experiments

import (
	"strings"
	"testing"
)

func TestFig3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := Fig3(1, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 35 {
		t.Fatalf("expected the paper's 35 configurations, got %d", len(res.Results))
	}
	for _, r := range res.Results {
		if r.NativeMedianMS <= 0 || r.GenericMedianMS <= 0 {
			t.Fatalf("%s: non-positive timing", r.Config)
		}
		// No threshold on r.MedianPct here: four repetitions on a shared
		// host drift by tens of percent between back-to-back runs. Whether
		// the abstraction costs anything is the benchmark's
		// core.dispatch_wilcoxon_p row, measured over matched pairs.
	}
	if res.Wilcoxon.N == 0 {
		t.Fatal("Wilcoxon test did not run")
	}
	if !strings.Contains(res.Report(), "Wilcoxon") {
		t.Fatal("report missing test summary")
	}
}

func TestDimOrderDirection(t *testing.T) {
	rows, err := DimOrder(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Factor <= 1 {
			t.Fatalf("bound %g: reversed dims should lose, factor %.2f", r.RelBound, r.Factor)
		}
		if r.Factor > 10 {
			t.Fatalf("bound %g: factor %.2f implausibly large", r.RelBound, r.Factor)
		}
	}
	if !strings.Contains(DimOrderReport(rows), "reversed") {
		t.Fatal("report malformed")
	}
}

func TestFlattenDirection(t *testing.T) {
	// Scale 2: at tiny grid sizes zfp's 1-D/3-D gap is within noise, so
	// use the size where the paper's effect is resolvable.
	rows, err := Flatten(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Factor <= 1 {
			t.Fatalf("%s@%g: flattening should lose, factor %.2f", r.Compressor, r.RelBound, r.Factor)
		}
	}
}

func TestZfpPadDirection(t *testing.T) {
	res, err := ZfpPad(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.PaddingFactor <= 1 {
		t.Fatalf("resize should recover efficiency, factor %.2f", res.PaddingFactor)
	}
}

func TestMgardMinFails(t *testing.T) {
	msg, err := MgardMin()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "3 points") {
		t.Fatalf("unexpected failure message: %s", msg)
	}
}

func TestTableIShape(t *testing.T) {
	rows := CompetitorFeatures()
	if len(rows) != 9 {
		t.Fatalf("the paper compares 9 competitors, got %d", len(rows))
	}
	us := LibPressioFeatures()
	// The whole point of Table I: this row is all yes, derived live.
	for name, v := range map[string]string{
		"lossless": us.Lossless, "lossy": us.Lossy, "nd": us.NDAware,
		"dtype": us.DTypeAware, "embeddable": us.Embeddable,
		"arbitrary": us.ArbitraryCfg, "introspect": us.Introspect,
		"thirdparty": us.ThirdParty,
	} {
		if v != Yes {
			t.Fatalf("feature %s not demonstrated: %s", name, v)
		}
	}
	if !strings.Contains(TableI(), "LibPressio") {
		t.Fatal("table missing our row")
	}
}

func TestTableIIReduction(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TableII(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Tasks()) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.GenericLines == 0 {
			t.Fatalf("%s: generic side not found", r.Task.Name)
		}
		if r.Task.NoNativeEquivalent {
			if r.NativeLines != 0 {
				t.Fatalf("%s: dagger row should have no native side", r.Task.Name)
			}
			continue
		}
		if r.NativeLines == 0 {
			t.Fatalf("%s: native side not found", r.Task.Name)
		}
		// The headline claim: generic clients are smaller.
		if r.RelativePct <= 0 {
			t.Fatalf("%s: no reduction (%.1f%%)", r.Task.Name, r.RelativePct)
		}
	}
	// The CLI and filter rows must land in the paper's 50-90%% band.
	for _, r := range rows {
		switch r.Task.Name {
		case "CLI", "HDF5 filter", "Z-Checker":
			if r.RelativePct < 50 || r.RelativePct > 90 {
				t.Fatalf("%s: %.1f%% outside the paper's 50-90%% band", r.Task.Name, r.RelativePct)
			}
		}
	}
}

func TestDatasets(t *testing.T) {
	ds := Datasets(1, 5)
	if len(ds) != 3 {
		t.Fatalf("datasets %d", len(ds))
	}
	for _, d := range ds {
		if d.Data.Len() == 0 {
			t.Fatalf("%s empty", d.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestDTypeAwareDirection(t *testing.T) {
	res, err := DTypeAware(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage <= 1.5 {
		t.Fatalf("type-aware compression should clearly beat byte-blind: %.2fx", res.Advantage)
	}
}
