// Package obslog configures log/slog for pressiod's structured events: one
// JSON object per line, ts, level and event first, then the caller's fields
// in call order, so a request's log lines join its span tree and its metrics
// under its request_id field.
//
// The process default logger discards everything until a process opts in
// (pressiod does at startup; the CLIs and library code never do), so
// instrumented library paths — breaker trips, shed decisions — cost one
// atomic load and one Enabled check when logging is off, matching the trace
// package's zero-when-unused contract.
package obslog

import (
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// New returns a logger writing events at or above min to w as JSON lines:
// {"ts":<RFC 3339 nano, UTC>,"level":<debug|info|warn|error>,"event":...,
// fields}. slog's handler formats a record before it takes its own mutex and
// holds it for one Write, so concurrent lines never interleave.
func New(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min, ReplaceAttr: schema}))
}

// schema renames slog's built-in time, level and msg attributes to the
// event schema's ts, lowercase level and event.
func schema(_ []string, a slog.Attr) slog.Attr {
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case a.Key == slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	case a.Key == slog.MessageKey:
		a.Key = "event"
	}
	return a
}

// ParseLevel maps a level name ("debug", "info", "warn", "error", in any
// case) to its slog.Level, defaulting to Info for anything unrecognized.
func ParseLevel(s string) slog.Level {
	var l slog.Level
	if l.UnmarshalText([]byte(s)) != nil {
		return slog.LevelInfo
	}
	return l
}

// Dur renders a duration as fractional milliseconds under key+"_ms" —
// millisecond-scaled latencies are what dashboards and the slow-request
// threshold speak.
func Dur(key string, value time.Duration) slog.Attr {
	return slog.Float64(key+"_ms", float64(value)/float64(time.Millisecond))
}

// Err builds an "error" field from err's message; for a nil err it returns
// the empty Attr, which slog's handlers skip.
func Err(err error) slog.Attr {
	if err == nil {
		return slog.Attr{}
	}
	return slog.String("error", err.Error())
}

// defaultLogger is the process default, used by library instrumentation
// points (the breaker state machine, the router) and by pressiod.
var defaultLogger atomic.Pointer[slog.Logger]

var discard = slog.New(slog.DiscardHandler)

// Default returns the process default logger: never nil, and discarding
// everything until SetDefault installs one.
func Default() *slog.Logger {
	if l := defaultLogger.Load(); l != nil {
		return l
	}
	return discard
}

// SetDefault installs l as the process default (nil restores the
// discarding logger).
func SetDefault(l *slog.Logger) { defaultLogger.Store(l) }
