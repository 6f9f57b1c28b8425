// Package resilience is the fault-tolerance layer of the framework: it
// makes "what happens when a compressor misbehaves?" answerable generically,
// once, above every plugin — the same leverage the generic interface gives
// policy code in the paper.
//
// Three pieces compose:
//
//   - The "guard" meta-compressor wraps any child compressor and converts
//     panics in plugin code to errors, enforces per-call deadlines with a
//     watchdog goroutine, and retries transient failures (core.IsTransient)
//     with capped exponential backoff plus deterministic jitter.
//   - The "fallback" meta-compressor degrades gracefully through an ordered
//     chain of tiers (e.g. sz → zfp → a lossless passthrough): when a tier
//     errors, times out, panics, or fails the optional round-trip
//     verification gate, the next tier serves the call, and the stream
//     records which tier produced it. Its chain of tiers (Chain) is shared
//     with the opt meta-compressor, whose streams route the same way.
//   - Integrity-checked frames (frame.go) are a self-describing container —
//     magic, version, producing plugin, dtype/dims, CRC32-C — written on
//     compress and validated before decompress, so corruption is detected
//     deterministically instead of exploding inside a decoder.
//
// Every retry, recovered panic, timeout, fallback engagement and detected
// corruption increments a trace counter (see internal/trace), so the
// observability layer covers the resilience layer. The deterministic chaos
// substrate that exercises all of this lives in internal/faultinject.
//
// See docs/RESILIENCE.md for the cookbook and the frame byte layout.
package resilience
