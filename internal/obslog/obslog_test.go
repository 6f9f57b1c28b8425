package obslog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// splitTS checks that line opens with a "ts" field holding an RFC 3339 nano
// UTC timestamp (slog has no clock hook) and returns the rest of the line.
func splitTS(t *testing.T, line string) string {
	t.Helper()
	const open = `{"ts":"`
	end := strings.Index(line, `",`)
	if !strings.HasPrefix(line, open) || end < 0 {
		t.Fatalf("line %q does not open with a ts field", line)
	}
	ts := line[len(open):end]
	if at, err := time.Parse(time.RFC3339Nano, ts); err != nil || at.Location() != time.UTC || !strings.HasSuffix(ts, "Z") {
		t.Errorf("ts %q is not RFC 3339 nano in UTC (err %v)", ts, err)
	}
	return line[end+2:]
}

func TestEventShapeAndOrder(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelDebug)

	l.Warn("slow_request",
		slog.String("request_id", "4bf92f3577b34da6a3ce929d0e0e4736"),
		slog.String("path", "/compress"),
		Dur("latency", 1500*time.Millisecond),
		slog.Int64("status", 200),
		slog.Bool("draining", false),
		Err(nil),
	)
	want := `"level":"warn","event":"slow_request",` +
		`"request_id":"4bf92f3577b34da6a3ce929d0e0e4736","path":"/compress",` +
		`"latency_ms":1500,"status":200,"draining":false}` + "\n"
	if got := splitTS(t, buf.String()); got != want {
		t.Errorf("event line after ts:\n got %q\nwant %q", got, want)
	}
}

func TestEveryLineIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelDebug)
	l.Debug("a")
	l.Info("b", slog.String("k", `quote " and \ slash <&>`), slog.Float64("nan", math.NaN()))
	l.Error("c", Err(errors.New("boom")), Err(nil))
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %q: %v", line, err)
			continue
		}
		for _, k := range []string{"ts", "level", "event"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %q missing %q", line, k)
			}
		}
		if m["event"] == "b" && m["k"] != `quote " and \ slash <&>` {
			t.Errorf("string field decoded as %q", m["k"])
		}
	}
	if !strings.Contains(buf.String(), `"error":"boom"`) {
		t.Error("Err field not encoded")
	}
	if strings.Contains(buf.String(), `"":`) {
		t.Error("Err(nil) produced an empty-keyed field")
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelWarn)
	l.Debug("drop")
	l.Info("drop")
	l.Warn("keep")
	l.Error("keep")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("wrote %d events, want 2:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), `"level":"error"`) {
		t.Errorf("level not lowercased:\n%s", buf.String())
	}
}

func TestNilAndDefaultLoggerAreSafe(t *testing.T) {
	// Default starts disabled; SetDefault swaps a logger in and, given nil,
	// back out.
	if Default().Enabled(context.Background(), slog.LevelError) {
		t.Error("unset default logger claims enabled")
	}
	Default().Info("discarded")
	var buf bytes.Buffer
	SetDefault(New(&buf, slog.LevelInfo))
	defer SetDefault(nil)
	Default().Info("captured", slog.String("x", "y"))
	if !strings.Contains(buf.String(), `"event":"captured","x":"y"`) {
		t.Errorf("default logger did not capture: %q", buf.String())
	}
	SetDefault(nil)
	Default().Info("discarded again")
	if strings.Count(buf.String(), "\n") != 1 {
		t.Error("disabled default still wrote")
	}
}

func TestConcurrentWritesStayLineAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("evt", slog.Int64("worker", int64(i)), slog.Int64("j", int64(j)))
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved line %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"error": slog.LevelError, "bogus": slog.LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
