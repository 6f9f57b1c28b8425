package trace

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"compress.calls":          "pressio_compress_calls",
		"service.bulkhead.x.shed": "pressio_service_bulkhead_x_shed",
		"pressio_goroutines":      "pressio_goroutines",
		"weird-name with spaces":  "pressio_weird_name_with_spaces",
		"colons:are:legal":        "pressio_colons:are:legal",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promSampleLine matches a sample line of the text exposition format.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9eE.]+$`)

func TestWritePrometheus(t *testing.T) {
	ResetTelemetry()
	defer ResetTelemetry()
	CounterAdd("compress.calls", 7)
	ObserveDuration("compress.latency", 3*time.Microsecond)
	ObserveDuration("compress.latency", 5*time.Microsecond)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf,
		Gauge{Name: "pressio_pool_free", Help: "free workers", Value: 4},
		BuildInfoGauge("test"),
	); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE pressio_compress_calls_total counter\npressio_compress_calls_total 7\n",
		"# TYPE pressio_compress_latency_seconds histogram\n",
		"pressio_compress_latency_seconds_count 2\n",
		"pressio_compress_latency_seconds_bucket{le=\"+Inf\"} 2\n",
		"# TYPE pressio_pool_free gauge\npressio_pool_free 4\n",
		"# TYPE pressio_build_info gauge\n",
		"goarch=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be a well-formed sample, and histogram
	// buckets must be cumulative (non-decreasing).
	var lastBucket int64 = -1
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
		if strings.HasPrefix(line, "pressio_compress_latency_seconds_bucket") {
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if v < lastBucket {
				t.Errorf("buckets not cumulative: %d after %d", v, lastBucket)
			}
			lastBucket = v
		}
	}
	if lastBucket != 2 {
		t.Errorf("final bucket %d, want 2", lastBucket)
	}
}

func TestRuntimeGauges(t *testing.T) {
	gs := RuntimeGauges()
	byName := map[string]float64{}
	for _, g := range gs {
		byName[g.Name] = g.Value
	}
	if byName["pressio_goroutines"] < 1 {
		t.Errorf("goroutines gauge %v", byName["pressio_goroutines"])
	}
	if byName["pressio_heap_alloc_bytes"] <= 0 {
		t.Errorf("heap alloc gauge %v", byName["pressio_heap_alloc_bytes"])
	}
}
