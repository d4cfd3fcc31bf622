package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns a deterministic keyspace shaped like engine content
// addresses (kind prefix + fingerprint-ish suffix).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("montecarlo/%016x", i*2654435761)
	}
	return keys
}

func mustRing(t *testing.T, nodes []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(nodes, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingDeterministicAcrossRestarts: ownership must be a pure function
// of the membership set — two independently built rings (as after a
// process restart, or on two different nodes of the fleet) agree on
// every key, regardless of the order the membership was listed in.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	a := mustRing(t, []string{"n1", "n2", "n3"}, 0)
	b := mustRing(t, []string{"n3", "n1", "n2"}, 0)
	for _, key := range testKeys(4096) {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingJoinMovesOnlyToNewNode: consistent hashing's defining bound —
// when a node joins, the only keys that change owner are the ones the
// new node claims (≈ 1/n of the keyspace), because surviving nodes'
// virtual points do not move. Any key moving between two old nodes
// would be a correctness bug, not just an efficiency one.
func TestRingJoinMovesOnlyToNewNode(t *testing.T) {
	keys := testKeys(8192)
	before := mustRing(t, []string{"n1", "n2", "n3", "n4"}, 0)
	after := mustRing(t, []string{"n1", "n2", "n3", "n4", "n5"}, 0)
	moved := 0
	for _, key := range keys {
		was, is := before.Owner(key), after.Owner(key)
		if was == is {
			continue
		}
		if is != "n5" {
			t.Fatalf("key %q moved %q → %q on join of n5; joins must only move keys to the new node", key, was, is)
		}
		moved++
	}
	// Expect ≈ 1/5 of the keyspace; allow generous slack for vnode
	// placement variance, but far below the 4/5 a naive mod-N rehash
	// would move.
	if frac := float64(moved) / float64(len(keys)); frac > 0.35 {
		t.Errorf("join moved %.1f%% of keys, want ≈20%% (vnode variance aside)", 100*frac)
	}
	if moved == 0 {
		t.Error("join moved no keys; the new node owns nothing")
	}
}

// TestRingLeaveMovesOnlyDepartedKeys: the mirror bound — when a node
// leaves, only its keys move (to the survivors); keys between two
// survivors stay put.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	keys := testKeys(8192)
	before := mustRing(t, []string{"n1", "n2", "n3", "n4"}, 0)
	after := mustRing(t, []string{"n1", "n2", "n3"}, 0)
	for _, key := range keys {
		was, is := before.Owner(key), after.Owner(key)
		if was != "n4" && was != is {
			t.Fatalf("key %q moved %q → %q on departure of n4; only n4's keys may move", key, was, is)
		}
		if was == "n4" && is == "n4" {
			t.Fatalf("key %q still owned by departed n4", key)
		}
	}
}

// TestRingBalance: with the default vnode multiplicity every node owns a
// meaningful share of the keyspace — no node is starved or dominant.
// Short IDs matter: their vnode labels differ only in the last bytes.
func TestRingBalance(t *testing.T) {
	keys := testKeys(10000)
	for _, nodes := range [][]string{{"n1", "n2", "n3", "n4", "n5"}, {"a", "b", "c"}} {
		r := mustRing(t, nodes, 0)
		counts := make(map[string]int)
		for _, key := range keys {
			counts[r.Owner(key)]++
		}
		fair := len(keys) / len(nodes)
		for _, n := range nodes {
			if c := counts[n]; c < fair/2 || c > fair*2 {
				t.Errorf("node %s owns %d of %d keys; want within 2x of fair share %d", n, c, len(keys), fair)
			}
		}
	}
}

// TestRingRejects: invalid membership — empty or duplicate IDs — fails
// construction.
func TestRingRejects(t *testing.T) {
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("NewRing accepted an empty node ID")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Error("NewRing accepted a duplicate node ID")
	}
}

// TestRingEmpty: a memberless ring owns nothing rather than panicking.
func TestRingEmpty(t *testing.T) {
	r := mustRing(t, nil, 0)
	if owner := r.Owner("anything"); owner != "" {
		t.Errorf("empty ring returned owner %q", owner)
	}
	if got := r.Nodes(); len(got) != 0 {
		t.Errorf("empty ring has members %v", got)
	}
}
