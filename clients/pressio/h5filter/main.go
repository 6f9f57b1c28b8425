// Command h5filter is the generic equivalent of the per-compressor
// h5filter-sz and h5filter-zfp tools: because the h5lite container accepts
// any registered compressor as its chunk filter through the generic
// interface, supporting a new compressor costs zero additional lines here.
package main

import (
	"flag"
	"fmt"
	"os"

	"pressio/internal/core"

	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/mgard"
	_ "pressio/internal/pio"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

func main() {
	var (
		mode    = flag.String("mode", "write", "write or read")
		input   = flag.String("input", "", "flat binary input (write) / container (read)")
		output  = flag.String("output", "", "container (write) / flat binary (read)")
		dims    = flag.String("dims", "", "dims for the input, slowest first")
		dtype   = flag.String("dtype", "float32", "element type")
		dataset = flag.String("dataset", "data", "dataset name in the container")
		filter  = flag.String("filter", "sz", "any registered compressor")
		bound   = flag.Float64("bound", 1e-4, "pressio:abs bound for lossy filters")
		rows    = flag.Uint64("chunk-rows", 16, "rows per chunk")
	)
	flag.Parse()
	if err := run(*mode, *input, *output, *dims, *dtype, *dataset, *filter, *bound, *rows); err != nil {
		fmt.Fprintln(os.Stderr, "h5filter:", err)
		os.Exit(1)
	}
}

func run(mode, input, output, dims, dtype, dataset, filter string, bound float64, rows uint64) error {
	h5, err := core.NewIO("h5lite")
	if err != nil {
		return err
	}
	switch mode {
	case "write":
		posix, err := core.NewIO("posix")
		if err != nil {
			return err
		}
		if err := posix.Opts().Set(core.NewOptions().SetValue(core.KeyIOPath, input)); err != nil {
			return err
		}
		hint, err := core.ParseShape(dims, dtype)
		if err != nil {
			return err
		}
		data, err := posix.Read(hint)
		if err != nil {
			return err
		}
		err = h5.Opts().Set(core.NewOptions().
			SetValue(core.KeyIOPath, output).
			SetValue("h5:dataset", dataset).
			SetValue("h5:filter", filter).
			SetValue("h5:filter_abs", bound).
			SetValue("h5:chunk_rows", rows))
		if err != nil {
			return err
		}
		return h5.Write(data)
	case "read":
		err = h5.Opts().Set(core.NewOptions().
			SetValue(core.KeyIOPath, input).
			SetValue("h5:dataset", dataset))
		if err != nil {
			return err
		}
		data, err := h5.Read(nil)
		if err != nil {
			return err
		}
		return os.WriteFile(output, data.Bytes(), 0o644)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}
