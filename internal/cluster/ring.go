// Package cluster scales the serving layer horizontally: a deterministic
// consistent-hash ring assigns every engine request key a home node, and
// a peer backend routes cache misses to the key's owner over HTTP before
// computing locally. Combined with the engine's layered backends this
// makes every expensive computation computable once per cluster instead
// of once per node: the owner's singleflight deduplicates the fleet's
// concurrent requests, and the owner's cache is the key's single home.
//
// The package is stdlib-only and goroutine-free (the project confines
// goroutine creation to internal/par and the server binary): peer
// fetches run synchronously under a bounded per-peer timeout, and a peer
// failure falls back to computing locally, so a node never becomes
// unavailable because its peers are.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the ring's default vnode multiplicity. 128
// points per node keeps the maximum ownership imbalance within a few
// percent for small fleets while membership changes stay O(vnodes·log).
const DefaultVirtualNodes = 128

// point is one virtual node on the ring: a hash position owned by a node.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node IDs. Ownership is a pure
// function of the membership set: the same nodes produce the same ring in
// every process and across restarts (the hash is FNV-1a, not a seeded map
// hash), which is what lets every node of a fleet route keys identically
// without coordination. Membership changes move only the keys adjacent to
// the changed node's virtual points — about 1/n of the keyspace when one
// of n nodes joins or leaves — so a rolling restart does not stampede the
// fleet's caches.
//
// A Ring is immutable once built, so it is safe for concurrent use
// without locking; a new membership is a new ring.
type Ring struct {
	nodes  []string
	points []point
}

// NewRing builds a ring over the given nodes with vnodes virtual points
// per node (0 selects DefaultVirtualNodes). Empty and duplicate node IDs
// are rejected: two nodes claiming the same points would make ownership
// depend on sort order instead of membership.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n)
		}
		seen[n] = true
	}
	points := make([]point, 0, len(nodes)*vnodes)
	for _, n := range nodes {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hash: hash64(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// A full 64-bit hash collision is vanishingly rare; break the tie
		// on the node ID so ownership stays a pure function of membership.
		return points[i].node < points[j].node
	})
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	return &Ring{nodes: sorted, points: points}, nil
}

// Owner returns the node owning key: the first virtual point at or after
// the key's hash, wrapping around the ring. An empty ring owns nothing
// and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the membership in sorted order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// hash64 is the ring's position hash: FNV-1a, chosen because it is
// stable across processes and platforms (a seeded or map-order hash
// would give every process its own ring), then the murmur3 64-bit
// finalizer. Raw FNV-1a barely moves the high bits — the ones that
// order the ring — for strings that differ only in their last bytes,
// as vnode labels ("a#0", "a#1", ...) do; without the finalizer a ring
// of a, b and c owned 9%, 32% and 59% of the keyspace.
func hash64(s string) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, s) // hash writes never fail
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
