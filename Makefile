GO ?= go

.PHONY: build test lint check bench benchmark

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: pressiolint enforces the plugin invariants (thread-safety
# honesty, handled errors, panic-free codec hooks, deterministic codecs),
# the flow-sensitive rules (lock pairing, buffer ownership, error-path write
# ordering), the interprocedural rules (goroutine leaks, request-context
# flow, locks held across blocking operations, hot-path allocations, dead
# code), and the taint rules over untrusted decode input (decompression
# bombs, unbounded spins, wild indexing). Registration is checked by the
# core registry itself, at init. Any finding fails; use `-sarif` for
# machine-readable output. See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/pressiolint ./...

# Tier-2 gate: vet + pressiolint + race tests on the concurrency-sensitive
# packages + the disabled-tracing overhead benchmark. See scripts/check.sh.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark behind BENCHMARK.json: five workloads, untraced
# (end-to-end metrics) then traced (per-layer metrics), ~3.5 min. See
# benchmark/README.md for the workloads, every metric, and -compare.
benchmark:
	$(GO) run ./benchmark
