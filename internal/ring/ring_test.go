package ring

import (
	"fmt"
	"testing"
)

// TestRingDeterministic pins the shared-ring contract: two rings built
// independently with the same shard count assign every tag identically
// and report the same signature — that is what lets a gateway and N
// shard processes partition the vocabulary without coordination.
func TestRingDeterministic(t *testing.T) {
	a, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ: %s vs %s", a.Signature(), b.Signature())
	}
	for i := 0; i < 10000; i++ {
		tag := fmt.Sprintf("tag-%d", i)
		if a.Owner(tag) != b.Owner(tag) {
			t.Fatalf("tag %q owned by %d on one ring, %d on the other", tag, a.Owner(tag), b.Owner(tag))
		}
	}
}

// TestRingMismatchDetectable: a different shard count must change the
// signature, so the gateway's sync-time check actually catches a
// misconfigured shard.
func TestRingMismatchDetectable(t *testing.T) {
	r3, _ := New(3, 1)
	r4, _ := New(4, 1)
	if r3.Signature() == r4.Signature() {
		t.Fatal("3-shard and 4-shard rings share a signature")
	}
}

// TestRingCoverageAndBalance: over a realistic vocabulary every shard
// owns a substantial slice — no shard is starved (which would turn a
// "3-shard" deployment into a 2-shard one) and none hogs the ring.
func TestRingCoverageAndBalance(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 8} {
		r, err := New(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, shards)
		const n = 50000
		for i := 0; i < n; i++ {
			counts[r.Owner(fmt.Sprintf("vocab-%d", i))]++
		}
		for s, c := range counts {
			frac := float64(c) / n
			lo, hi := 0.5/float64(shards), 2.0/float64(shards)
			if frac < lo || frac > hi {
				t.Errorf("%d shards: shard %d owns %.1f%% of tags, want within [%.1f%%, %.1f%%]",
					shards, s, 100*frac, 100*lo, 100*hi)
			}
		}
	}
}

// TestRingOwnerInRange: owners always land in [0, shards), including
// for tags that hash past the highest virtual node (the wraparound).
func TestRingOwnerInRange(t *testing.T) {
	r, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	top, wrapped := r.points[len(r.points)-1].hash, 0
	for i := 0; i < 100000; i++ {
		tag := fmt.Sprintf("wrap-%d", i)
		if hash64(tag) > top {
			wrapped++
		}
		if o := r.Owner(tag); o < 0 || o >= 3 {
			t.Fatalf("owner %d out of range", o)
		}
	}
	if wrapped == 0 {
		t.Fatal("no tag hashed past the highest point: the wraparound went untested")
	}
}

func TestRingRejectsZeroShards(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("0-shard ring accepted")
	}
}

func TestRingRejectsBadReplicas(t *testing.T) {
	if _, err := New(3, 0); err == nil {
		t.Fatal("0-replica ring accepted")
	}
	if _, err := New(3, 4); err == nil {
		t.Fatal("4 replicas over 3 shards accepted")
	}
}

// TestRingReplicaDistribution pins the replica-placement contract:
// Owners(tag, R) yields R distinct shards, identically on two
// independently built rings (the seedless hash), with the preferred
// replica matching Owner, and with load balanced within tolerance both
// across shards and across replica positions — so failing over from
// position 0 to position 1 does not dogpile one unlucky shard.
func TestRingReplicaDistribution(t *testing.T) {
	for _, tc := range []struct{ shards, replicas int }{{3, 2}, {4, 2}, {5, 3}} {
		a, err := New(tc.shards, tc.replicas)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(tc.shards, tc.replicas)
		if err != nil {
			t.Fatal(err)
		}
		if a.Signature() != b.Signature() {
			t.Fatalf("%d/%d: signatures differ: %s vs %s", tc.shards, tc.replicas, a.Signature(), b.Signature())
		}
		const n = 30000
		// posCounts[p][s] counts tags whose p-th replica is shard s.
		posCounts := make([][]int, tc.replicas)
		for p := range posCounts {
			posCounts[p] = make([]int, tc.shards)
		}
		var owners, owners2 []int
		for i := 0; i < n; i++ {
			tag := fmt.Sprintf("vocab-%d", i)
			owners = a.Owners(tag, owners[:0])
			owners2 = b.Owners(tag, owners2[:0])
			if len(owners) != tc.replicas {
				t.Fatalf("%d/%d: tag %q has %d owners", tc.shards, tc.replicas, tag, len(owners))
			}
			if fmt.Sprint(owners) != fmt.Sprint(owners2) {
				t.Fatalf("%d/%d: tag %q owners %v on one ring, %v on the other", tc.shards, tc.replicas, tag, owners, owners2)
			}
			if owners[0] != a.Owner(tag) {
				t.Fatalf("%d/%d: tag %q preferred replica %d != Owner %d", tc.shards, tc.replicas, tag, owners[0], a.Owner(tag))
			}
			seen := make(map[int]bool, tc.replicas)
			for p, o := range owners {
				if o < 0 || o >= tc.shards {
					t.Fatalf("%d/%d: tag %q owner %d out of range", tc.shards, tc.replicas, tag, o)
				}
				if seen[o] {
					t.Fatalf("%d/%d: tag %q repeats shard %d in %v", tc.shards, tc.replicas, tag, o, owners)
				}
				seen[o] = true
				posCounts[p][o]++
			}
		}
		for p := range posCounts {
			for s, c := range posCounts[p] {
				frac := float64(c) / n
				lo, hi := 0.5/float64(tc.shards), 2.0/float64(tc.shards)
				if frac < lo || frac > hi {
					t.Errorf("%d shards R=%d: replica position %d puts %.1f%% of tags on shard %d, want within [%.1f%%, %.1f%%]",
						tc.shards, tc.replicas, p, 100*frac, s, 100*lo, 100*hi)
				}
			}
		}
	}
}

// TestRingAssignAndCovered pins the failover arithmetic the gateway and
// the shards must agree on: Assign walks the replica set in preference
// order skipping excluded shards, and Covered answers exactly whether
// some slice lost its last replica.
func TestRingAssignAndCovered(t *testing.T) {
	r, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var owners []int
	for i := 0; i < 5000; i++ {
		tag := fmt.Sprintf("vocab-%d", i)
		owners = r.Owners(tag, owners[:0])
		if got := r.Assign(tag, nil); got != owners[0] {
			t.Fatalf("tag %q: Assign(nil) = %d, want preferred %d", tag, got, owners[0])
		}
		if got := r.Assign(tag, []int{owners[0]}); got != owners[1] {
			t.Fatalf("tag %q: Assign(excl first) = %d, want %d", tag, got, owners[1])
		}
		if got := r.Assign(tag, owners); got != -1 {
			t.Fatalf("tag %q: Assign(excl all) = %d, want -1", tag, got)
		}
		for _, o := range owners {
			if !r.Owns(tag, o) {
				t.Fatalf("tag %q: Owns(%d) false for an owner", tag, o)
			}
		}
	}
	if !r.Covered(nil) || !r.Covered([]int{1}) {
		t.Fatal("R=2 ring not covered with one shard excluded")
	}
	if r.Covered([]int{0, 1}) {
		t.Fatal("R=2 ring claims coverage with 2 of 3 shards excluded")
	}
	r1, _ := New(3, 1)
	if r1.Covered([]int{2}) {
		t.Fatal("R=1 ring claims coverage with a shard excluded")
	}
}

// TestRingSignatureGolden pins Signature byte for byte for shards 1..8
// at every R up to min(shards, 3). Gateways compare signatures across
// processes and versions, and R=1 ones are logged and baselined, so any
// change to the hash, the vnode labels, the vnode count or the point
// order must fail here.
func TestRingSignatureGolden(t *testing.T) {
	for _, g := range []struct {
		shards, replicas int
		sig              string
	}{
		{1, 1, "f2327a516af73242"},
		{2, 1, "aebf4720a6bd3691"},
		{2, 2, "ac3c6f7b5383bbc9"},
		{3, 1, "f4a79a962313f4ca"},
		{3, 2, "ccc0751d9ae8efd8"},
		{3, 3, "ccc0761d9ae8f18b"},
		{4, 1, "970d7605defdb779"},
		{4, 2, "a99706f9e91ec601"},
		{4, 3, "a99705f9e91ec44e"},
		{5, 1, "3ede2affcf6a187d"},
		{5, 2, "3d9b8fad71479fcd"},
		{5, 3, "3d9b8ead71479e1a"},
		{6, 1, "21b818afc7c1040c"},
		{6, 2, "0cd600b06cf9e3ca"},
		{6, 3, "0cd601b06cf9e57d"},
		{7, 1, "8f82f44906370a80"},
		{7, 2, "128f9a158f86dae6"},
		{7, 3, "128f9b158f86dc99"},
		{8, 1, "20fbf9699d8e0aa2"},
		{8, 2, "9a336e76b85c0de0"},
		{8, 3, "9a336f76b85c0f93"},
	} {
		r, err := New(g.shards, g.replicas)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Signature(); got != g.sig {
			t.Errorf("%d shards R=%d: signature %s, want %s", g.shards, g.replicas, got, g.sig)
		}
		if r.Shards() != g.shards || r.Replicas() != g.replicas {
			t.Errorf("%d shards R=%d: ring reports %d shards R=%d", g.shards, g.replicas, r.Shards(), r.Replicas())
		}
	}
}
