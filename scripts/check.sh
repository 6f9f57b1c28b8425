#!/bin/sh
# Tier-2 quality gate: build + gofmt + vet + pressiolint the whole module, check every
# plugin's option schema (well-formedness, pinned option surface, generated
# docs/PLUGINS.md reference), race-test
# the concurrency-sensitive packages (the tracing layer, the parallel
# meta-compressors, the core wrapper and its one fan-out with its callers in
# sz and h5lite, and the serving layer), run the
# deterministic chaos tests of the resilience and serving layers, smoke-test
# the pressiod daemon end to end (SIGTERM graceful drain included),
# smoke-test the sharded cluster topology (3 shards + router, SIGKILL
# failover, cross-process trace continuity), smoke-test the crash-consistent
# object store (SIGKILL mid-load, recovery, byte-exact reads, clean fsck),
# smoke-fuzz the stream decoders, and run the disabled-tracing overhead
# benchmark that guards the "near-zero cost when off" promise. Performance
# against the parent commit is the benchmark's job (benchmark/README.md).
#
# Usage: scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l (analyzer fixtures under testdata/ excepted)"
test -z "$(gofmt -l internal cmd *.go | grep -v /testdata/)"

echo "==> go vet ./..."
go vet ./...

echo "==> one fan-out: sync.WaitGroup only in core/fanout.go and cluster/router.go (hedged)"
test -z "$(grep -rln 'sync.WaitGroup' internal --include='*.go' |
    grep -v -e '_test\.go$' -e '^internal/analysis/' -e '^internal/stream/' \
        -e '^internal/core/fanout\.go$' -e '^internal/cluster/router\.go$')"

echo "==> pressiolint ./... (all fifteen analyzers, zero findings)"
go run ./cmd/pressiolint ./...

echo "==> option schemas (well-formed, option surface pinned, docs/PLUGINS.md reference current)"
go test -run 'TestSchema|TestOptionSurfaceGolden|TestPluginDocsGenerated' ./internal/core/

echo "==> go test -race (trace, obslog, meta, core, service, daemon, cluster, store, fsx, sz, h5lite)"
go test -race ./internal/trace/... ./internal/obslog/... ./internal/meta/... \
    ./internal/core/... ./internal/service/... ./internal/daemon/ \
    ./internal/cluster/ ./internal/store/ ./internal/fsx/ \
    ./internal/sz/ ./internal/h5lite/

echo "==> chaos tests under race detector (resilience, faultinject, service, daemon, cluster)"
go test -race -run 'TestChaos' ./internal/resilience/ ./internal/faultinject/ \
    ./internal/service/ ./internal/daemon/ ./internal/cluster/

echo "==> store crash matrix (kill at every declared crash point, zero acked loss)"
go test -race -run 'TestCrash' ./internal/store/

echo "==> pressiod smoke (start, /readyz, round-trip, SIGTERM, clean drain)"
scripts/pressiod-smoke.sh

echo "==> pressiod cluster smoke (3 shards + router, SIGKILL failover, trace continuity)"
scripts/pressiod-cluster-smoke.sh

echo "==> pressiod store smoke (PUT, SIGKILL mid-load, recovery, byte-exact, fsck clean)"
scripts/pressiod-store-smoke.sh

echo "==> fuzz smoke (decoders, 5s each; corpora replay known crashers)"
go test -fuzz 'FuzzDecompressSlice' -fuzztime 5s ./internal/sz/
go test -fuzz 'FuzzDecompressSlice' -fuzztime 5s ./internal/zfp/
go test -fuzz 'FuzzBlockCoderMatchesReference' -fuzztime 5s ./internal/zfp/
go test -fuzz 'FuzzDecompressSlice' -fuzztime 5s ./internal/fpzip/
go test -fuzz 'FuzzDecompressSlice' -fuzztime 5s ./internal/mgard/
go test -fuzz 'FuzzDecompressSlice' -fuzztime 5s ./internal/tthresh/
go test -fuzz '^FuzzDecompress$' -fuzztime 5s ./internal/meta/
go test -fuzz 'FuzzDecode' -fuzztime 5s ./internal/huffman/
go test -fuzz 'FuzzDecodeFrame' -fuzztime 5s ./internal/resilience/
go test -fuzz 'FuzzDecodeRecord' -fuzztime 5s ./internal/store/

echo "==> disabled-tracing overhead benchmark"
go test -run '^$' -bench 'BenchmarkStartDisabled' -benchtime 100ms ./internal/trace/
go test -run '^$' -bench 'BenchmarkDispatchDirectImpl|BenchmarkDispatchWrappedUntraced' -benchtime 100ms .

echo "==> check OK"
