GO ?= go

.PHONY: build test lint lint-baseline check bench benchmark

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: pressiolint enforces the plugin invariants (init-time
# registration, thread-safety honesty, handled errors, deterministic
# codecs), the flow-sensitive rules (lock pairing, buffer ownership,
# error-path write ordering), the interprocedural rules (goroutine leaks,
# request-context flow, locks held across blocking operations, hot-path
# allocations), and the taint rules over untrusted decode input
# (decompression bombs, unbounded spins, wild indexing). Use `-json` or
# `-sarif` for machine-readable output, `-baseline lint-baseline.sarif` to
# gate on new findings only. See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/pressiolint ./...

# Re-record the committed SARIF baseline after fixing or waiving findings:
# `-baseline` runs then gate on new findings only and warn (without failing)
# when entries here go stale.
lint-baseline:
	$(GO) run ./cmd/pressiolint -sarif ./... > lint-baseline.sarif || true

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
