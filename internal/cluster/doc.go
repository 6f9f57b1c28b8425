// Package cluster shards pressiod compress/decompress work across a fleet
// of peer daemons and keeps it flowing when peers die.
//
// The pieces compose in layers, mirroring the single-node resilience stack:
//
//   - Ring: a consistent-hash ring over peer addresses (virtual nodes,
//     deterministic placement, replica sets of R distinct peers per key).
//     Placement depends only on membership, never on health, so a bounced
//     peer gets the same keys back.
//   - PeerClient: one HTTP client per peer wrapping every call in the
//     service-layer resilience stack — a process-shared circuit breaker
//     (service.BreakerState.Call), a weighted admission bulkhead,
//     capped-exponential-backoff retries with deterministic splitmix64
//     jitter (resilience.Backoff.Retry), and a per-attempt deadline.
//   - Router: places each call's payload on the ring, hedges slow
//     primaries to the next replica after a p99-derived delay (first success
//     wins, loser cancelled), fails over through the replica set when peers
//     are down or their breakers open, and degrades to a local compressor
//     when the whole fleet is unreachable.
//   - HealthChecker: polls each peer's /readyz and flips ring health on
//     up/down transitions, so placement re-resolves without waiting for
//     request-path failures.
//
// Nothing here is about process lifecycle: internal/daemon owns the order in
// which the health checker, the router and its listener start and stop.
//
// The proof is a multi-process chaos test (chaos_multiproc_test.go): three
// real pressiod shards, concurrent load from the test-only CompressMany, one
// shard SIGKILLed mid-flight — every chunk completes exactly once with a
// verified round-trip. See docs/CLUSTER.md.
package cluster
