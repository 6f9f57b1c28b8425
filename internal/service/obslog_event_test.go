package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"pressio/internal/obslog"
)

// Breaker state transitions are observable as structured events: a trip
// emits breaker.trip (warn) and a half-open recovery emits breaker.recover
// (info), both correlated by scope.
func TestBreakerTransitionsEmitObslogEvents(t *testing.T) {
	ResetShared()
	var buf bytes.Buffer
	obslog.SetDefault(obslog.New(&buf, slog.LevelDebug))
	defer obslog.SetDefault(nil)

	clk := NewFakeClock(time.Unix(0, 0))
	st := StateFor("evt-scope", BreakerConfig{
		Window: 2, Failures: 1, Cooldown: time.Second, Probes: 1,
	})
	st.SetClock(clk)

	boom := func() error { return errors.New("boom") }
	if _, recorded, _ := st.Call(context.Background(), boom); !recorded {
		t.Fatal("closed breaker rejected")
	}
	if st.Mode() != ModeOpen {
		t.Fatalf("mode %v, want open", st.Mode())
	}

	clk.Advance(2 * time.Second)
	if _, recorded, err := st.Call(context.Background(), func() error { return nil }); !recorded || err != nil {
		t.Fatalf("half-open probe not admitted (recorded=%v err=%v)", recorded, err)
	}
	if st.Mode() != ModeClosed {
		t.Fatalf("mode %v, want closed after successful probe", st.Mode())
	}

	out := buf.String()
	if !strings.Contains(out, `"event":"breaker.trip"`) || !strings.Contains(out, `"scope":"evt-scope"`) {
		t.Errorf("missing breaker.trip event:\n%s", out)
	}
	if !strings.Contains(out, `"event":"breaker.recover"`) {
		t.Errorf("missing breaker.recover event:\n%s", out)
	}
}
