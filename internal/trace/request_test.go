package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceIDs(t *testing.T) {
	rt := NewRequestTrace("")
	id := rt.TraceID()
	if len(id) != 32 {
		t.Fatalf("generated trace id %q, want 32 hex digits", id)
	}
	if !validTraceID(id) {
		t.Fatalf("generated trace id %q not valid", id)
	}
	// A supplied valid id is kept verbatim; a malformed one is replaced.
	const given = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := NewRequestTrace(given).TraceID(); got != given {
		t.Errorf("valid id replaced: %q", got)
	}
	for _, bad := range []string{"xyz", strings.Repeat("0", 32), strings.Repeat("A", 32), strings.Repeat("a", 31)} {
		if got := NewRequestTrace(bad).TraceID(); got == bad {
			t.Errorf("malformed id %q accepted", bad)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	id, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok || id != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("ParseTraceparent = %q, %v", id, ok)
	}
	for _, bad := range []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero id
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestRequestTraceSpanTree(t *testing.T) {
	rt := NewRequestTrace("")
	root := rt.Start("daemon.request", Str("path", "/compress"))
	child := root.Child("daemon.codec", Int("bytes", 128))
	grand := child.Child("daemon.codec.inner")
	grand.End()
	child.End()
	root.End()
	root.End() // idempotent

	spans := rt.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["daemon.request"], byName["daemon.codec"], byName["daemon.codec.inner"]
	if r.Parent != 0 {
		t.Errorf("root parent %d, want 0", r.Parent)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent %d, want root id %d", c.Parent, r.ID)
	}
	if g.Parent != c.ID {
		t.Errorf("grandchild parent %d, want child id %d", g.Parent, c.ID)
	}
	// The traceparent carries the root span id.
	tp := rt.Traceparent()
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != rt.TraceID() || parts[3] != "01" {
		t.Fatalf("traceparent %q malformed", tp)
	}
	if parts[2] == strings.Repeat("0", 16) {
		t.Errorf("traceparent parent-id is zero after spans started: %q", tp)
	}
}

func TestRequestTraceNilSafety(t *testing.T) {
	var rt *RequestTrace
	if rt.TraceID() != "" || rt.Traceparent() != "" || rt.Spans() != nil {
		t.Error("nil RequestTrace accessors not zero-valued")
	}
	sp := rt.Start("x")
	sp.End()
	sp.Child("y").End() // all no-ops, must not panic

	ctx := context.Background()
	if got := RequestTraceFrom(ctx); got != nil {
		t.Errorf("RequestTraceFrom(empty ctx) = %v, want nil", got)
	}
	real := NewRequestTrace("")
	ctx = WithRequestTrace(ctx, real)
	if got := RequestTraceFrom(ctx); got != real {
		t.Error("RequestTraceFrom did not round-trip")
	}
}

func TestRequestTraceConcurrent(t *testing.T) {
	rt := NewRequestTrace("")
	root := rt.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("worker", Int("i", int64(i)))
			time.Sleep(time.Millisecond)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(rt.Spans()); got != 9 {
		t.Fatalf("got %d spans, want 9", got)
	}
}

func TestRequestTraceBounded(t *testing.T) {
	rt := NewRequestTrace("")
	for i := 0; i < maxRequestSpans+10; i++ {
		rt.Start("s").End()
	}
	if got := len(rt.Spans()); got != maxRequestSpans {
		t.Fatalf("buffer grew to %d, want cap %d", got, maxRequestSpans)
	}
}
