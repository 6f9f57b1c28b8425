package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"pressio/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesBenchmarkJSON fails when BENCHMARK.json and the tables
// the program emits from drift apart.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program uses %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayerSpecs)
	}

	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if _, ok := tailQuantile[w.Name]; !ok {
			t.Errorf("%s has no tail percentile", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEndSpecs {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetupS && m.Unit == unitSeconds && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayerSpecs {
		check(m.Name)
	}
}

func quickOptions(t *testing.T, workload string) runOptions {
	dir := t.TempDir()
	return runOptions{workload: workload, seed: 7, seconds: 0.2, outDir: dir, scratch: dir, quick: true}
}

// TestWorkloadsSmoke runs every workload briefly and expects every end-to-end
// metric finite and non-zero, with no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := runUntraced(quickOptions(t, spec.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEndSpecs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: missing or unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
				if got.Value == 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %v", m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(endToEndSpecs) {
				t.Errorf("%d metrics emitted, %d specified", len(res.Metrics), len(endToEndSpecs))
			}
		})
	}
}

// TestTracedRunSmoke runs one traced run end to end: every per-layer metric
// is emitted and finite, and the Chrome trace file is written and parses.
func TestTracedRunSmoke(t *testing.T) {
	o := quickOptions(t, wlServeRouted)
	o.seconds = 0.5
	res, err := runTraced(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("failed %d of %d", res.Failed, res.Attempted)
	}
	for _, m := range perLayerSpecs {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v (present %v)", m.Name, got, ok)
		}
	}
	// Layers every run exercises must have measured something.
	for _, name := range []string{
		"sz.compress_mbps", "huffman.decode_mbps", "store.put_ms", "cluster.hop_overhead_us",
		"daemon.route_us", "daemon.unattributed_us", "fsx.atomic_write_ms", "stream.write_mbps",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	sum := attributionSum(func(name string) float64 { return res.Metrics[name].Value })
	if observed := res.Metrics["daemon.client_observed_us"].Value; observed <= 0 || math.Abs(sum-observed) > 0.05*observed {
		t.Errorf("layers sum to %.1f us, client observed %.1f us", sum, observed)
	}
	data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+wlServeRouted+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range file.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{spanClientRequest, spanDaemonRequest, spanDaemonRoute, "daemon.compress", "probe.store.put"} {
		if !names[want] {
			t.Errorf("trace file has no %q span", want)
		}
	}
}

// attributionSum adds the per-op layer self times and the unattributed
// remainder of a traced run.
func attributionSum(value func(name string) float64) float64 {
	sum := 0.0
	for _, name := range []string{
		"daemon.admission_us", "daemon.read_body_us", "daemon.pool_wait_us", "daemon.codec_us",
		"daemon.write_response_us", "daemon.route_us", "daemon.request_self_us", "daemon.unattributed_us",
	} {
		sum += value(name)
	}
	return sum
}

// TestAttributionAddsUp checks the ledger property on the workloads whose
// daemons record spans (serve_routed is covered by TestTracedRunSmoke; on
// lib_codecs and store_rw the root span is all there is): the per-op layer
// self times plus the unattributed remainder sum to the client-observed time
// within 5%.
func TestAttributionAddsUp(t *testing.T) {
	for _, name := range []string{wlServeLarge, wlServeSmall} {
		t.Run(name, func(t *testing.T) {
			o := quickOptions(t, name)
			o.seconds = 0.5
			w, err := newWorkload(o.workload, o.scratch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := setupTimed(w, o.seed); err != nil {
				t.Fatal(err)
			}
			out, _, failed, err := tracedPhases(w, o, newTracer(w.clients()))
			if _, _, tdErr := w.teardown(); tdErr != nil {
				t.Error(tdErr)
			}
			if err != nil || failed != 0 {
				t.Fatalf("err %v, failed %d", err, failed)
			}
			sum := attributionSum(func(name string) float64 { return out[name] })
			observed := out["daemon.client_observed_us"]
			if observed <= 0 || math.Abs(sum-observed) > 0.05*observed {
				t.Errorf("layers sum to %.1f us, client observed %.1f us", sum, observed)
			}
			if out["daemon.codec_us"] <= 0 || out["daemon.request_self_us"] <= 0 {
				t.Errorf("no daemon spans were merged: %v", out)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 us with children 10..30 and 20..50 (overlapping) and 60..70;
	// the second child has a grandchild 25..35.
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	var spans []trace.SpanRecord
	add := func(id, parent uint64, name string, start, end int) {
		spans = append(spans, trace.SpanRecord{ID: id, Parent: parent, Name: name, Start: us(start), Duration: us(end - start)})
	}
	add(1, 0, "root", 0, 100)
	add(2, 1, "a", 10, 30)
	add(3, 1, "b", 20, 50)
	add(4, 1, "a", 60, 70)
	add(5, 3, "c", 25, 35)
	self := selfTimes(spans, []int{0})
	want := map[string]time.Duration{"root": us(50), "a": us(30), "b": us(20), "c": us(10)}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4).
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles: [2.75, 5.5, 8.25]; (8.25 - 2.75) / 5.5 = 1.
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	v = []float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3, 9.8, 10.0, 10.6}
	// quantiles: [9.875, 10.05, 10.325].
	if got, want := spread(v), (10.325-9.875)/10.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v * 1.002, v * 0.998} }
	noisy := func(v float64) []float64 { return []float64{v * 0.9, v * 1.1, v, v * 0.85, v * 1.15, v} }
	metric := func(value float64, better string, values []float64) reportedMetric {
		return reportedMetric{Value: value, Better: better, Bound: 0.10, Values: values}
	}
	for _, tc := range []struct {
		name string
		a, b reportedMetric
		want string
	}{
		{"latency up 20%", metric(10, lower, steady(10)), metric(12, lower, steady(12)), verdictRegression},
		{"throughput down 20%", metric(100, higher, steady(100)), metric(80, higher, steady(80)), verdictRegression},
		{"latency up 5%", metric(10, lower, steady(10)), metric(10.5, lower, steady(10.5)), verdictWithin},
		{"latency down 5%", metric(10, lower, steady(10)), metric(9.5, lower, steady(9.5)), verdictImproved},
		{"inside the spread", metric(10, lower, noisy(10)), metric(10.3, lower, steady(10.3)), verdictUnresolved},
		{"same value, one run each", metric(10, lower, []float64{10}), metric(10, lower, []float64{10}), verdictUnresolved},
	} {
		if _, _, got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
