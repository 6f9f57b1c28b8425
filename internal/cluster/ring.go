package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"pressio/internal/stats"
)

// DefaultVirtualNodes is the per-peer virtual node count when unspecified.
// 64 points per peer keeps the max/mean load ratio under ~1.25 for small
// fleets while the ring stays tiny (3 peers × 64 points = 192 entries).
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over peer addresses. Each peer owns VNodes
// points on the ring; a key is placed on the first point at or after its
// hash, and its replica set is the next R distinct peers walking clockwise.
//
// Placement is a pure function of membership: health state is tracked on the
// side (SetUp) and never moves points, so a peer that flaps gets exactly its
// old keys back and no other peer's placement churns. All methods are safe
// for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	up     map[string]bool
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds a ring with vnodes virtual nodes per peer (<=0 means
// DefaultVirtualNodes).
func NewRing(vnodes int, peers ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, up: map[string]bool{}}
	for _, p := range peers {
		r.Add(p)
	}
	return r
}

// hash64 is FNV-1a over b: deterministic across processes and runs, cheap,
// and well-dispersed enough for placement (a splitmix64 step finalizes to
// break up FNV's avalanche weakness on short keys). The loop is inline, not
// hash/fnv: Replicas hashes on every routed request, and fnv.New64a plus its
// Write would cost an allocation and two interface calls per key.
func hash64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return stats.SplitMix64(&h)
}

// Add inserts a peer (idempotent). New peers start down until a health
// checker reports otherwise; callers without a health checker should SetUp
// explicitly.
func (r *Ring) Add(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.up[peer]; ok {
		return
	}
	r.up[peer] = false
	for i := 0; i < r.vnodes; i++ {
		h := hash64([]byte(peer + "#" + strconv.Itoa(i)))
		r.points = append(r.points, ringPoint{hash: h, peer: peer})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a peer and its points.
func (r *Ring) Remove(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.up[peer]; !ok {
		return
	}
	delete(r.up, peer)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.peer != peer {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// SetUp records peer health. It returns true when this call changed the
// state (so callers can count transitions exactly once). Unknown peers are
// ignored.
func (r *Ring) SetUp(peer string, up bool) (changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	was, ok := r.up[peer]
	if !ok || was == up {
		return false
	}
	r.up[peer] = up
	return true
}

// Up reports the recorded health of peer.
func (r *Ring) Up(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.up[peer]
}

// Peers returns all members, sorted, regardless of health.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.up))
	for p := range r.up {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UpCount reports how many members are currently healthy.
func (r *Ring) UpCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, up := range r.up {
		if up {
			n++
		}
	}
	return n
}

// Replicas returns the replica set for key: the first r distinct peers
// walking clockwise from the key's point, in preference order. Health is
// deliberately ignored — the caller decides what "down" means (skip, try
// last, ...) so placement itself never churns. r is clamped to the member
// count.
func (r *Ring) Replicas(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.up) {
		n = len(r.up)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// String summarizes membership for logs: "3 peers (2 up)".
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	up := 0
	for _, u := range r.up {
		if u {
			up++
		}
	}
	return fmt.Sprintf("%d peers (%d up)", len(r.up), up)
}
