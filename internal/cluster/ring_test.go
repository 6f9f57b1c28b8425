package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

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
	counts := map[string]int{}
	n := 3000
	for i := 0; i < n; i++ {
		counts[r.Replicas([]byte(fmt.Sprintf("key-%d", i)), 1)[0]]++
	}
	mean := float64(n) / 3
	for p, c := range counts {
		if ratio := float64(c) / mean; ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("peer %s owns %d/%d keys (ratio %.2f); virtual nodes are not dispersing", p, c, n, ratio)
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

func TestHash64Dispersion(t *testing.T) {
	// Short sequential keys (the FNV weak spot the splitmix finalizer exists
	// for) must still land in both halves of the hash space.
	low, high := 0, 0
	for i := 0; i < 1000; i++ {
		if hash64([]byte(fmt.Sprintf("%d", i)))&(1<<63) == 0 {
			low++
		} else {
			high++
		}
	}
	if low < 300 || high < 300 {
		t.Fatalf("top-bit split %d/%d; finalizer is not dispersing", low, high)
	}
}

// TestRingPlacementGolden pins where 16 fixed keys land on a fixed 3-peer
// ring. Placement is a wire-level fact (a router restarted on a new build
// must send a key to the shard that already holds its neighbours), so any
// change to the hash is a breaking change and must show up here.
func TestRingPlacementGolden(t *testing.T) {
	r := NewRing(0, "10.0.0.1:8123", "10.0.0.2:8123", "10.0.0.3:8123")
	want := []string{
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.2:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.3:8123 10.0.0.1:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.1:8123 10.0.0.2:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.1:8123 10.0.0.2:8123",
		"10.0.0.3:8123 10.0.0.2:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
		"10.0.0.1:8123 10.0.0.3:8123",
		"10.0.0.3:8123 10.0.0.1:8123",
		"10.0.0.2:8123 10.0.0.1:8123",
	}
	for i, key := range testKeys(16) {
		if got := strings.Join(r.Replicas(key, 2), " "); got != want[i] {
			t.Errorf("Replicas(%q, 2) = %q, want %q", key, got, want[i])
		}
	}
}
