package cluster

import (
	"fmt"
	"sort"

	"hyrec/internal/core"
)

// This file implements the consistent-hash ring that decides which
// partition owns which user. The previous topology was a fixed
// multiplicative hash `(u·φ) mod N`: perfectly balanced, but changing N
// remaps essentially every user. Under the ring, going from N to M
// partitions (a restart over a snapshot) changes the owner of only the
// users whose arc changed hands — in expectation K/max(N,M) of the
// population per partition added or removed.
//
// Each partition projects DefaultVNodes virtual nodes onto a 64-bit
// ring; a user is owned by the partition whose virtual node is the
// first at or clockwise after the user's hash point. Virtual nodes keep
// the arcs fine-grained enough that ownership stays within a few
// percent of uniform even at small partition counts.
//
// The ring is a pure function of (partitions, vnodes): two processes —
// or two incarnations of the same process across a restart — that agree
// on those two integers agree on every user's owner. Snapshots
// therefore only stamp the topology parameters, never the point table,
// and the persist layer can replay any historical topology into the
// current one by re-routing each restored user through the live ring.

// DefaultVNodes is the number of virtual nodes each partition projects
// onto the ring. 64 keeps the max/min ownership ratio under ~1.3 at the
// partition counts deployments run, at a table cost of 16 bytes per
// vnode.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring and the
// partition that owns the arc ending at it.
type ringPoint struct {
	hash uint64
	part int32
}

// Ring maps users to partitions by consistent hashing. Immutable after
// construction; safe for unsynchronized concurrent use.
type Ring struct {
	points []ringPoint // sorted ascending by hash
	parts  int
	vnodes int
}

// NewRing builds the ring for n partitions with v virtual nodes each
// (v <= 0 selects DefaultVNodes). It panics on n < 1 (programmer
// error), mirroring cluster.New.
func NewRing(n, v int) *Ring {
	if n < 1 {
		panic(fmt.Sprintf("cluster: ring needs >= 1 partition, got %d", n))
	}
	if v <= 0 {
		v = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, n*v), parts: n, vnodes: v}
	for p := 0; p < n; p++ {
		for i := 0; i < v; i++ {
			r.points = append(r.points, ringPoint{
				hash: splitmix64(uint64(p)<<32 | uint64(i)),
				part: int32(p),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Partitions returns the number of partitions the ring routes over.
func (r *Ring) Partitions() int { return r.parts }

// VNodes returns the virtual-node count per partition.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the partition that owns u: the partition of the first
// virtual node at or clockwise after u's point (wrapping at the top of
// the ring).
func (r *Ring) Owner(u core.UserID) int {
	if r.parts == 1 {
		return 0
	}
	h := splitmix64(uint64(uint32(u)) | 1<<40)
	// First point with hash >= h; the ring wraps to points[0].
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].part)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mix used both for virtual-node placement and
// for user points. Vnode keys and user keys live in disjoint input
// ranges (bit 40 tags users), so a user can never land exactly on a
// vnode key by identifier coincidence.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
