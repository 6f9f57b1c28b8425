// Command pressio is the generic compression CLI (the LibPressio-Tools
// analogue): one tool that can compress, decompress and analyze any dataset
// with any registered compressor plugin, any IO format, and any metrics
// modules. The per-compressor native CLIs under clients/native implement
// the same core workflow three times — the productivity contrast Table II
// measures.
//
// Usage examples:
//
//	pressio -list
//	pressio -compressor sz -input x.bin -dims 100,500,500 -dtype float32 \
//	        -o pressio:rel=1e-3 -output x.sz
//	pressio -mode decompress -compressor sz -input x.sz -output x.out \
//	        -dims 100,500,500 -dtype float32
//	pressio -compressor zfp -input x.npy -io npy -mode roundtrip \
//	        -o pressio:abs=1e-4 -metrics size,time,error_stat
//
// Passing -trace=out.json records spans for the whole run and writes a
// Chrome trace_event file on exit (see docs/OBSERVABILITY.md).
//
// It also hides a -worker mode implementing the external-process protocol
// used by the §V embeddability experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"pressio/internal/core"
	"pressio/internal/launch"
	"pressio/internal/service"
	"pressio/internal/trace"

	// Register the full plugin library.
	_ "pressio/internal/bitgroom"
	_ "pressio/internal/faultinject"
	_ "pressio/internal/fpzip"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/metrics"
	_ "pressio/internal/mgard"
	_ "pressio/internal/pio"
	_ "pressio/internal/resilience"
	_ "pressio/internal/sz"
	_ "pressio/internal/tthresh"
	_ "pressio/internal/zfp"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		mode        = flag.String("mode", "compress", "compress, decompress, roundtrip, or options")
		compressor  = flag.String("compressor", "sz", "compressor plugin name")
		input       = flag.String("input", "", "input path")
		output      = flag.String("output", "", "output path (optional for roundtrip)")
		ioName      = flag.String("io", "posix", "io plugin for the input (posix, npy, csv, h5lite, iota)")
		outIO       = flag.String("output-io", "posix", "io plugin for the output")
		dimsFlag    = flag.String("dims", "", "comma separated dims for non self-describing inputs")
		dtypeFlag   = flag.String("dtype", "float32", "element type for non self-describing inputs")
		metricsCSV  = flag.String("metrics", "size,time", "comma separated metrics plugins")
		optsJSON    = flag.String("options-json", "", "JSON file of typed options to apply")
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
		guardFlag   = flag.Bool("guard", false, "wrap the compressor in the guard meta-compressor (panic containment, deadlines, retries; tune with -o guard:...)")
		fallbackCSV = flag.String("fallback", "", "comma separated backup compressors tried in order when the primary fails (tune with -o fallback:...)")
		breakerFlag = flag.Bool("breaker", false, "wrap the composition in the circuit-breaker meta-compressor (tune with -o breaker:...)")
		list        = flag.Bool("list", false, "list registered plugins and exit")
		worker      = flag.Bool("worker", false, "serve one external-process request on stdin/stdout")
		delay       = flag.Duration("startup-delay", 0, "simulated initialization delay in worker mode")
		opts        stringList
	)
	flag.Var(&opts, "o", "compressor option key=value (repeatable)")
	flag.Parse()

	if *traceOut != "" {
		trace.Enable()
	}
	comp, opts := applyResilienceFlags(*compressor, *guardFlag, *fallbackCSV, *breakerFlag, opts)
	if err := run(*mode, comp, *input, *output, *ioName, *outIO,
		*dimsFlag, *dtypeFlag, *metricsCSV, *optsJSON, *list, *worker, *delay, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pressio:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := trace.WriteChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "pressio: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pressio: wrote %d spans to %s\n", trace.Len(), *traceOut)
	}
}

// applyResilienceFlags translates the -guard, -fallback and -breaker
// convenience flags into the equivalent meta-compressor composition via the
// shared service.ComposeResilience helper, so pressio and pressiod agree on
// the wrapping order: breaker{guard{fallback{codec}}}. Synthesised options
// are prepended in -o form so explicit -o flags can still override them.
func applyResilienceFlags(compressor string, guard bool, fallbackCSV string, breaker bool, opts stringList) (string, stringList) {
	name, out := service.ComposeResilience(compressor, guard, fallbackCSV, breaker, opts)
	return name, stringList(out)
}

func run(mode, compressor, input, output, ioName, outIO, dimsFlag, dtypeFlag,
	metricsCSV, optsJSON string, list, worker bool, delay time.Duration, opts stringList) error {
	if worker {
		time.Sleep(delay)
		return launch.Serve(os.Stdin, os.Stdout)
	}
	if list {
		fmt.Println("compressors:", strings.Join(core.SupportedCompressors(), " "))
		fmt.Println("metrics:    ", strings.Join(core.SupportedMetrics(), " "))
		fmt.Println("io:         ", strings.Join(core.SupportedIO(), " "))
		return nil
	}

	c, err := core.NewCompressor(compressor)
	if err != nil {
		return err
	}
	if err := launch.ApplyOptionFlags(c, opts); err != nil {
		return err
	}
	if optsJSON != "" {
		raw, err := os.ReadFile(optsJSON)
		if err != nil {
			return err
		}
		fileOpts := core.NewOptions()
		if err := json.Unmarshal(raw, fileOpts); err != nil {
			return fmt.Errorf("parsing %s: %w", optsJSON, err)
		}
		if err := c.SetOptions(fileOpts); err != nil {
			return err
		}
	}

	if mode == "options" {
		printOptions(c)
		return nil
	}

	var names []string
	for _, m := range strings.Split(metricsCSV, ",") {
		if m = strings.TrimSpace(m); m != "" {
			names = append(names, m)
		}
	}
	if len(names) > 0 {
		m, err := core.NewMetrics(names...)
		if err != nil {
			return err
		}
		c.SetMetrics(m)
	}

	hint, err := parseHint(dimsFlag, dtypeFlag)
	if err != nil {
		return err
	}

	switch mode {
	case "compress":
		in, err := readInput(ioName, input, hint)
		if err != nil {
			return err
		}
		out, err := core.Compress(c, in)
		if err != nil {
			return err
		}
		if output != "" {
			if err := writeOutput(outIO, output, out); err != nil {
				return err
			}
		}
		printResults(c)
	case "decompress":
		in, err := readInput(ioName, input, nil)
		if err != nil {
			return err
		}
		if hint == nil {
			return fmt.Errorf("decompress needs -dims and -dtype")
		}
		out := core.NewEmpty(hint.DType(), hint.Dims()...)
		if err := c.Decompress(core.NewBytes(in.Bytes()), out); err != nil {
			return err
		}
		if output != "" {
			if err := writeOutput(outIO, output, out); err != nil {
				return err
			}
		}
		printResults(c)
	case "roundtrip":
		in, err := readInput(ioName, input, hint)
		if err != nil {
			return err
		}
		comp, err := core.Compress(c, in)
		if err != nil {
			return err
		}
		dec := core.NewEmpty(in.DType(), in.Dims()...)
		if err := c.Decompress(comp, dec); err != nil {
			return err
		}
		if output != "" {
			if err := writeOutput(outIO, output, dec); err != nil {
				return err
			}
		}
		printResults(c)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

func parseHint(dimsFlag, dtypeFlag string) (*core.Data, error) {
	if dimsFlag == "" {
		return nil, nil
	}
	var dims []uint64
	for _, p := range strings.Split(dimsFlag, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad dims %q: %v", dimsFlag, err)
		}
		dims = append(dims, v)
	}
	dtype, err := core.ParseDType(dtypeFlag)
	if err != nil {
		return nil, err
	}
	return core.NewEmpty(dtype, dims...), nil
}

func readInput(ioName, path string, hint *core.Data) (*core.Data, error) {
	io, err := core.NewIO(ioName)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := io.SetOptions(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
			return nil, err
		}
	}
	return io.Read(hint)
}

func writeOutput(ioName, path string, d *core.Data) error {
	io, err := core.NewIO(ioName)
	if err != nil {
		return err
	}
	if err := io.SetOptions(core.NewOptions().SetValue(core.KeyIOPath, path)); err != nil {
		return err
	}
	return io.Write(d)
}

// printOptions lists every option the compressor's schema declares — type,
// current value, default, bounds and description — then whatever else
// Options() reports (a built child's options, forwarded through a wrapper).
func printOptions(c *core.Compressor) {
	fmt.Printf("%s %s\n", c.Prefix(), c.Version())
	fmt.Println("options:")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "  KEY\tTYPE\tVALUE\tDEFAULT\tBOUNDS\tDESCRIPTION")
	opts := c.Options()
	defaults := core.NewOptions()
	if fresh, err := core.NewCompressor(c.Prefix()); err == nil {
		defaults = fresh.Options()
	}
	declared := map[string]bool{}
	for _, spec := range c.Schema() {
		declared[spec.Key] = true
		value, _ := opts.Get(spec.Key)
		def, _ := defaults.Get(spec.Key)
		doc := spec.Doc
		if spec.ReadOnly {
			doc += " (read-only)"
		}
		fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%s\t%s\n", spec.Key, spec.Type, value, def, spec.Bounds, doc)
	}
	for _, k := range opts.Keys() {
		if o, _ := opts.Get(k); !declared[k] {
			fmt.Fprintf(w, "  %s\t%s\t%s\t\t\t\n", k, o.Type(), o)
		}
	}
	w.Flush()
	fmt.Println("configuration:")
	cfg := c.Configuration()
	for _, k := range cfg.Keys() {
		o, _ := cfg.Get(k)
		fmt.Printf("  %-40s %s\n", k, o)
	}
}

func printResults(c *core.Compressor) {
	res := c.MetricsResults()
	for _, k := range res.Keys() {
		o, _ := res.Get(k)
		fmt.Printf("%s=%s\n", k, o)
	}
}
