package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pressio/internal/stats"
)

// seededBytes is n reproducible pseudo-random bytes.
func seededBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(stats.SplitMix64(&seed))
	}
	return b
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chunk-%d", i))
	}
	return keys
}

func TestRingPlacementDeterministic(t *testing.T) {
	peers := []string{"10.0.0.1:8123", "10.0.0.2:8123", "10.0.0.3:8123"}
	a := NewRing(0, peers...)
	// A second ring built from the same membership (in a different insertion
	// order) must place every key identically: placement is a pure function
	// of membership, never of history.
	b := NewRing(0, peers[2], peers[0], peers[1])
	for _, key := range testKeys(200) {
		ra := a.Replicas(key, 2)
		rb := b.Replicas(key, 2)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("placement differs for %q: %v vs %v", key, ra, rb)
		}
	}
}

func TestRingReplicasDistinct(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1")
	for _, key := range testKeys(200) {
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %v", reps)
		}
		seen := map[string]bool{}
		for _, p := range reps {
			if seen[p] {
				t.Fatalf("duplicate peer %s in replica set %v for %q", p, reps, key)
			}
			seen[p] = true
		}
	}
}

func TestRingReplicasClampedToMembership(t *testing.T) {
	r := NewRing(0, "a:1", "b:1")
	if got := r.Replicas([]byte("k"), 5); len(got) != 2 {
		t.Fatalf("replicas %v, want clamped to 2 members", got)
	}
	if got := NewRing(0).Replicas([]byte("k"), 2); got != nil {
		t.Fatalf("empty ring returned %v, want nil", got)
	}
	if got := r.Replicas([]byte("k"), 0); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
}

// Health transitions must never move placement: a flapping peer gets exactly
// its old keys back, and keys placed on other peers do not churn.
func TestRingHealthDoesNotMovePlacement(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1")
	for _, p := range r.Peers() {
		r.SetUp(p, true)
	}
	keys := testKeys(300)
	before := make([][]string, len(keys))
	for i, k := range keys {
		before[i] = r.Replicas(k, 2)
	}
	if changed := r.SetUp("b:1", false); !changed {
		t.Fatal("first down transition should report changed")
	}
	if changed := r.SetUp("b:1", false); changed {
		t.Fatal("repeated down transition should not report changed")
	}
	for i, k := range keys {
		if got := r.Replicas(k, 2); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("placement churned on health flip for %q: %v vs %v", k, got, before[i])
		}
	}
	if !r.SetUp("b:1", true) {
		t.Fatal("up transition should report changed")
	}
	if r.SetUp("unknown:1", true) {
		t.Fatal("unknown peer must be ignored")
	}
}

// Removing one peer must only reassign the keys that peer owned; every other
// primary assignment stays put (the consistent-hashing contract).
func TestRingRemoveMinimalChurn(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1", "d:1")
	keys := testKeys(500)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = r.Replicas(k, 1)[0]
	}
	r.Remove("c:1")
	for i, k := range keys {
		after := r.Replicas(k, 1)[0]
		if before[i] != "c:1" && after != before[i] {
			t.Fatalf("key %q moved %s -> %s though its primary was not removed", k, before[i], after)
		}
		if after == "c:1" {
			t.Fatalf("key %q still placed on removed peer", k)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1")
	const n = 3000
	short := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	payload := func(i int) []byte { return seededBytes(4096, uint64(i)) }
	for name, key := range map[string]func(int) []byte{"short": short, "payload-4KiB": payload} {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			counts[r.Replicas(key(i), 1)[0]]++
		}
		mean := float64(n) / 3
		for _, p := range r.Peers() {
			if ratio := float64(counts[p]) / mean; ratio < 0.5 || ratio > 1.5 {
				t.Fatalf("%s keys: peer %s owns %d/%d (ratio %.2f); virtual nodes are not dispersing", name, p, counts[p], n, ratio)
			}
		}
	}
}

func TestRingAccounting(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1")
	if got := r.Peers(); !reflect.DeepEqual(got, []string{"a:1", "b:1", "c:1"}) {
		t.Fatalf("Peers() = %v", got)
	}
	if r.UpCount() != 0 {
		t.Fatalf("new peers must start down, UpCount=%d", r.UpCount())
	}
	r.SetUp("a:1", true)
	r.SetUp("b:1", true)
	if r.UpCount() != 2 || !r.Up("a:1") || r.Up("c:1") {
		t.Fatalf("health accounting wrong: UpCount=%d", r.UpCount())
	}
	if got := r.String(); got != "3 peers (2 up)" {
		t.Fatalf("String() = %q", got)
	}
	r.Add("a:1") // idempotent
	if len(r.Peers()) != 3 {
		t.Fatalf("duplicate Add changed membership: %v", r.Peers())
	}
}

// TestHash64Dispersion checks that keys differing only a little still land
// in both halves of the hash space and never share a point.
func TestHash64Dispersion(t *testing.T) {
	base := seededBytes(64<<10, 7)
	cases := map[string]func(i int) []byte{
		"short sequential": func(i int) []byte { return []byte(fmt.Sprintf("%d", i)) },
		"64KiB one byte apart": func(i int) []byte {
			b := append([]byte(nil), base...)
			b[i*65] ^= byte(1 + i%255)
			return b
		},
		// CRC32C of zeros differs by length too; the folded length must
		// not undo that.
		"zeros of length 1..1000": func(i int) []byte { return make([]byte, i+1) },
	}
	for name, key := range cases {
		low, high := 0, 0
		seen := map[uint64]int{}
		for i := 0; i < 1000; i++ {
			h := hash64(key(i))
			if j, dup := seen[h]; dup {
				t.Fatalf("%s: keys %d and %d share hash %#x", name, j, i, h)
			}
			seen[h] = i
			if h&(1<<63) == 0 {
				low++
			} else {
				high++
			}
		}
		if low < 300 || high < 300 {
			t.Fatalf("%s: top-bit split %d/%d; hash is not dispersing", name, low, high)
		}
	}
}

// TestHash64Golden pins hash64's values: placement is deterministic across
// processes and builds only if these never move.
func TestHash64Golden(t *testing.T) {
	for _, c := range []struct {
		name string
		key  []byte
		want uint64
	}{
		{"empty", []byte(""), 0xe220a8397b1dcdaf},
		{"a", []byte("a"), 0x82565b7997a97755},
		{"vnode", []byte("10.0.0.1:8123#0"), 0x541430df96697642},
		{"seeded 64KiB", seededBytes(64<<10, 7), 0xe3cc3f280b86c821},
	} {
		if got := hash64(c.key); got != c.want {
			t.Errorf("hash64(%s) = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// Replicas allocates only its result: the seen set stays on the stack and
// the hash allocates nothing.
func TestReplicasAllocs(t *testing.T) {
	r := NewRing(0, "a:1", "b:1", "c:1")
	key := seededBytes(64<<10, 7)
	if allocs := testing.AllocsPerRun(100, func() { r.Replicas(key, 2) }); allocs > 1 {
		t.Fatalf("Replicas(64KiB, 2) allocates %.1f times per call, want <= 1 (the result)", allocs)
	}
}

// FuzzRingReplicas checks placement on any key over 1-5 peers: the replica
// set is min(n, members) distinct members, and a ring built in another
// insertion order places the key identically.
func FuzzRingReplicas(f *testing.F) {
	f.Add([]byte("chunk-0"), uint8(3), 2)
	f.Add([]byte(""), uint8(1), 1)
	f.Add(seededBytes(4096, 1), uint8(5), 7)
	f.Add([]byte{0}, uint8(2), -1)
	f.Fuzz(func(t *testing.T, key []byte, members uint8, n int) {
		peers := make([]string, 1+int(members)%5)
		for i := range peers {
			peers[i] = fmt.Sprintf("10.0.0.%d:8123", i+1)
		}
		reversed := make([]string, len(peers))
		for i, p := range peers {
			reversed[len(peers)-1-i] = p
		}
		got := NewRing(0, peers...).Replicas(key, n)
		if other := NewRing(0, reversed...).Replicas(key, n); !reflect.DeepEqual(got, other) {
			t.Fatalf("insertion order moved placement: %v vs %v", got, other)
		}
		want := min(max(n, 0), len(peers))
		if len(got) != want {
			t.Fatalf("Replicas(n=%d) over %d peers = %v, want %d", n, len(peers), got, want)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p] || !strings.HasPrefix(p, "10.0.0.") {
				t.Fatalf("replica set %v repeats or invents a member", got)
			}
			seen[p] = true
		}
	})
}

// TestRingPlacementGolden pins where 16 fixed keys land on a fixed 3-peer
// ring. Placement is a wire-level fact (a router restarted on a new build
// must send a key to the shard that already holds its neighbours), so any
// change to the hash is a breaking change and must show up here.
// Placement has moved once on purpose: when hash64 went from FNV-1a to
// CRC32C, every key moved (docs/CLUSTER.md, "Upgrading").
func TestRingPlacementGolden(t *testing.T) {
	r := NewRing(0, "10.0.0.1:8123", "10.0.0.2:8123", "10.0.0.3:8123")
	want := []string{
		"10.0.0.1:8123 10.0.0.2:8123",
		"10.0.0.2:8123 10.0.0.3:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.1:8123",
		"10.0.0.2:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.1:8123 10.0.0.2:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
		"10.0.0.2:8123 10.0.0.3:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
		"10.0.0.2:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
	}
	for i, key := range testKeys(16) {
		if got := strings.Join(r.Replicas(key, 2), " "); got != want[i] {
			t.Errorf("Replicas(%q, 2) = %q, want %q", key, got, want[i])
		}
	}
}
