// Command pressio-zchecker is the generic compression-quality analysis
// tool (the Z-Checker integration of the paper): it surveys any set of
// registered compressors over a dataset and reports quality metrics from
// the metrics plugin library. Compare clients/native/zchecker, which
// hard-codes four compressors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pressio/internal/core"

	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
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

func main() {
	var (
		input       = flag.String("input", "", "input path")
		ioName      = flag.String("io", "posix", "io plugin")
		dims        = flag.String("dims", "", "dims, slowest first")
		dtype       = flag.String("dtype", "float32", "element type")
		compressors = flag.String("compressors", "sz,zfp,mgard,fpzip,tthresh", "any registered compressors")
		bound       = flag.Float64("bound", 1e-3, "pressio:rel bound (ignored by plugins without it)")
		metricsCSV  = flag.String("metrics", "size,error_stat,pearson,ks_test,autocorrelation,diff_pdf", "metrics plugins")
	)
	flag.Parse()
	if err := run(*input, *ioName, *dims, *dtype, *compressors, *bound, *metricsCSV); err != nil {
		fmt.Fprintln(os.Stderr, "pressio-zchecker:", err)
		os.Exit(1)
	}
}

func run(input, ioName, dims, dtype, compressors string, bound float64, metricsCSV string) error {
	io, err := core.NewIO(ioName)
	if err != nil {
		return err
	}
	if err := io.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, input)); err != nil {
		return err
	}
	var hint *core.Data
	if dims != "" {
		if hint, err = core.ParseShape(dims, dtype); err != nil {
			return err
		}
	}
	data, err := io.Read(hint)
	if err != nil {
		return err
	}
	metricNames := strings.Split(metricsCSV, ",")
	for _, name := range strings.Split(compressors, ",") {
		name = strings.TrimSpace(name)
		c, err := core.NewCompressor(name)
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			continue
		}
		// Every compressor takes the same generic bound; plugins that do
		// not understand it (e.g. fpzip) simply ignore it, and their
		// introspected options say so.
		if err := c.SetOptions(core.NewOptions().SetValue(core.KeyRel, bound)); err != nil {
			fmt.Printf("%s: %v\n", name, err)
			continue
		}
		m, err := core.NewMetrics(metricNames...)
		if err != nil {
			return err
		}
		c.SetMetrics(m)
		comp, err := core.Compress(c, data)
		if err != nil {
			fmt.Printf("%s: compress: %v\n", name, err)
			continue
		}
		if _, err := core.Decompress(c, comp, data.DType(), data.Dims()...); err != nil {
			fmt.Printf("%s: decompress: %v\n", name, err)
			continue
		}
		fmt.Printf("== %s (%s)\n", name, c.Version())
		res := c.MetricsResults()
		for _, k := range res.Keys() {
			o, _ := res.Get(k)
			fmt.Printf("  %-36s %s\n", k, o)
		}
	}
	return nil
}
