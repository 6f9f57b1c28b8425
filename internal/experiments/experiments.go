// Package experiments regenerates every quantitative artifact of the
// paper's evaluation: the Figure 3 overhead distribution with its Wilcoxon
// test (§VI), the in-text §V measurements (dimension ordering, 1-D
// flattening, zfp block padding, MGARD minimum dims, embeddable-vs-exec
// overhead), Table I's feature matrix, and Table II's lines-of-code
// comparison. cmd/pressio-bench drives it from the command line and the
// top-level bench_test.go exposes one benchmark per artifact.
package experiments

import (
	"fmt"
	"strings"

	"pressio/internal/core"
	"pressio/internal/sdrbench"

	// The experiments exercise the full plugin library.
	_ "pressio/internal/bitgroom"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/pio"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

// Dataset couples a synthetic SDRBench stand-in with its name.
type Dataset struct {
	Name string
	Data *core.Data
}

// Datasets generates the three evaluation datasets of §VI at the given
// scale (1 = quick, 2+ = closer to paper-scale buffers).
func Datasets(scale int, seed int64) []Dataset {
	names := []string{sdrbench.NameScaleLetKF, sdrbench.NameNYX, sdrbench.NameHACC}
	out := make([]Dataset, 0, len(names))
	for i, n := range names {
		d, _ := sdrbench.Generate(n, scale, seed+int64(i))
		out = append(out, Dataset{Name: n, Data: d})
	}
	return out
}

// ratioOf compresses in with the named compressor at generic options and
// returns the compression ratio.
func ratioOf(name string, in *core.Data, opts *core.Options) (float64, error) {
	c, err := core.NewCompressor(name)
	if err != nil {
		return 0, err
	}
	if err := c.SetOptions(opts); err != nil {
		return 0, err
	}
	comp, err := core.Compress(c, in)
	if err != nil {
		return 0, err
	}
	return float64(in.ByteLen()) / float64(comp.ByteLen()), nil
}

// Table renders rows as an aligned plain-text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
