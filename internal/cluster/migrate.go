package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hyrec/internal/core"
	"hyrec/internal/server"
)

// This file is the live-resharding coordinator: Cluster.Scale changes
// the partition count at runtime by streaming only the moved users'
// state between engines, while the rest of the population — and all
// in-flight traffic — keeps serving.
//
// The protocol, in publish order:
//
//  1. Build the target ring and the engine set (new partitions are
//     created with exactly the seed and lease lane a static cluster of
//     the target size would give them; removed partitions are the
//     highest indices, so survivors keep their index, sampler and
//     resolver unchanged).
//  2. Diff ownership: every user whose ring arc changed hands enters
//     the `moving` set — by the ring's construction that is ~1/N of the
//     population per partition added or removed, not everyone.
//  3. Publish the new topology atomically. From this instant ratings
//     route to the new owner (Cluster.Rate additionally re-checks the
//     topology after each write, closing the race with writers that
//     pinned the old snapshot), jobs are assembled by the new owner,
//     and results for moving users double-route: resolved against the
//     minting partition's anonymiser, folded into the new owner.
//  4. Stream state per source partition in bounded batches: export
//     from the source, merge-import into the destination (opinions the
//     destination has already recorded win — they are newer), evict
//     the source scheduler's lease so in-flight jobs drain, and delete
//     the source copy.
//  5. Close removed partitions (now empty), clear the moving set, and
//     advance every partition's anonymiser one epoch: pseudonyms minted
//     before the migration stay resolvable for exactly one more
//     rotation on partitions that kept their users, while a straggler
//     result for a moved user is *rejected* (server.ErrMoved — the
//     minting partition still resolves it, but ownership has moved)
//     rather than silently misrouted.
//
// Scale is synchronous and serialized; it returns once the migration
// has fully completed and /stats reports migrating:false.

// laneStep is the modulus of the lease-lane registry: partition lanes
// are allocated monotonically and never reused, so a lease minted by a
// removed partition can only ever report unknown — with the old
// (lease-1) mod N rule, a scale event would have silently remapped
// every outstanding lease onto the wrong scheduler. 2^20 lanes bound a
// deployment to ~one million scale-event partition creations over its
// lifetime, far beyond any realistic churn.
const laneStep = 1 << 20

// maxPartitions bounds a scale target. POST /v1/topology is
// unauthenticated, and each partition costs an engine, a scheduler and
// a lease lane, so an unbounded target is a one-request memory bomb; no
// deployment of this tree runs more than a handful of partitions.
const maxPartitions = 256

// migrateBatch bounds how many users move per export/import/delete
// step, keeping the coordinator's working set small and each source
// partition's interference window short.
const migrateBatch = 256

// Scale reshapes the cluster to n partitions, streaming moved users'
// state live. It is a no-op when n equals the current partition count,
// and refuses (server.ErrScaleTarget) an n outside [1, maxPartitions].
// The context is honoured only up to the point of no return (before the
// new topology is published); once publication happens the migration
// runs to completion so the cluster is never left half-routed.
func (c *Cluster) Scale(ctx context.Context, n int) error {
	if n < 1 || n > maxPartitions {
		return fmt.Errorf("cluster: %w: %d partitions, want 1 to %d", server.ErrScaleTarget, n, maxPartitions)
	}
	c.scaleMu.Lock()
	defer c.scaleMu.Unlock()
	if c.closed {
		return errors.New("cluster: scale after Close")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	old := c.snap()
	if n == len(old.parts) {
		return nil
	}
	c.migrating.Store(true)
	defer c.migrating.Store(false)

	// Tombstones from the previous migration have served their purpose
	// (their racing writers drained at least one full migration ago);
	// purge them so the per-shard maps stay bounded by one migration's
	// move set.
	for _, e := range old.parts {
		e.ClearTombstones()
	}

	ring := NewRing(n, old.ring.VNodes())
	keep := min(n, len(old.parts))
	parts := make([]*server.Engine, n)
	copy(parts, old.parts[:keep])
	laneOf := make([]uint64, n)
	copy(laneOf, old.laneOf[:keep])
	lanes := make(map[uint64]int, n)
	for i := 0; i < keep; i++ {
		lanes[laneOf[i]] = i
	}
	for i := len(old.parts); i < n; i++ {
		lane := c.nextLane
		c.nextLane++
		parts[i] = c.newPartition(i, lane)
		lanes[lane] = i
		laneOf[i] = lane
	}
	var removed []*server.Engine // partitions dropped by a scale-in
	if n < len(old.parts) {
		removed = old.parts[n:]
	}
	// Mid-move, retired partitions stay addressable: their engines ride
	// along in topology.retired and their lease lanes stay registered
	// (mapped to their old, now out-of-range indices, which engineAt
	// resolves), so in-flight jobs they minted can still be resolved,
	// double-routed and acked. The final topology drops both.
	migLanes := lanes
	if len(removed) > 0 {
		migLanes = make(map[uint64]int, len(lanes)+len(removed))
		for lane, pi := range lanes {
			migLanes[lane] = pi
		}
		for i := n; i < len(old.parts); i++ {
			migLanes[old.laneOf[i]] = i
		}
	}

	// Diff ownership under the new ring. Only users whose arc changed
	// hands move; the ring guarantees that is ~1/max(N,M) of each
	// surviving partition's population (all of a removed partition's).
	moving := diffOwnership(old.parts, ring, nil)

	// Point of no return: publish. Every operation from here routes
	// over the new ring; moving users double-route.
	c.topo.Store(&topology{ring: ring, parts: parts, lanes: migLanes, laneOf: laneOf, moving: moving, retired: removed})

	// Close the diff race: a user whose very first rating or
	// registration landed on an old-ring owner while the scan above was
	// running is absent from `moving` (and her writer's topology
	// re-check fired before the publish, so nothing re-applied her
	// elsewhere). Re-scan now that routing has flipped; stragglers join
	// the move set via a fresh publish. Anything registered after this
	// second scan necessarily observes the published topology on its
	// re-check and re-applies itself on the new owner.
	if extra := diffOwnership(old.parts, ring, moving); len(extra) > 0 {
		merged := make(map[core.UserID]moveTarget, len(moving)+len(extra))
		for u, mt := range moving {
			merged[u] = mt
		}
		for u, mt := range extra {
			merged[u] = mt
		}
		moving = merged
		c.topo.Store(&topology{ring: ring, parts: parts, lanes: migLanes, laneOf: laneOf, moving: moving, retired: removed})
	}

	if c.moveHook != nil {
		// Test seam: runs with the new topology published but no state
		// streamed yet — the widest mid-move window.
		c.moveHook()
	}

	// Stream state, grouped by source partition, in bounded batches.
	byFrom := make(map[int][]core.UserID)
	for u, mt := range moving {
		byFrom[int(mt.from)] = append(byFrom[int(mt.from)], u)
	}
	sources := make([]int, 0, len(byFrom))
	for from := range byFrom {
		sources = append(sources, from)
	}
	sort.Ints(sources)
	for _, from := range sources {
		src := old.parts[from]
		users := byFrom[from]
		sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
		for len(users) > 0 {
			batch := users[:min(migrateBatch, len(users))]
			users = users[len(batch):]
			c.moveBatch(src, parts, moving, batch)
		}
	}

	// Removed partitions are now empty; stop their schedulers and
	// fallback pools. In-flight readers holding the old snapshot may
	// still consult their (drained) tables — Close only stops
	// background work, it never invalidates reads.
	for _, e := range removed {
		e.Close()
	}

	// Migration complete: clear the moving set…
	c.topo.Store(&topology{ring: ring, parts: parts, lanes: lanes, laneOf: laneOf})

	// …and bump every partition's anonymiser epoch. In-flight jobs for
	// users that did not move stay resolvable (their epoch is now the
	// previous one); a straggler result for a moved user surfaces
	// server.ErrMoved instead of being folded into a partition that no
	// longer owns the user.
	for _, e := range parts {
		e.RotateAnonymizer()
	}
	return nil
}

// diffOwnership scans each engine's roster for users the ring assigns
// to a different partition, skipping entries already in `have` (nil for
// the first pass).
func diffOwnership(parts []*server.Engine, ring *Ring, have map[core.UserID]moveTarget) map[core.UserID]moveTarget {
	out := make(map[core.UserID]moveTarget)
	for i, e := range parts {
		for _, u := range e.Profiles().Users() {
			if _, done := have[u]; done {
				continue
			}
			if j := ring.Owner(u); j != i {
				out[u] = moveTarget{from: int32(i), to: int32(j)}
			}
		}
	}
	return out
}

// moveBatch streams one batch of users from src to their destination
// engines: export, merge-import, scheduler eviction, source delete.
func (c *Cluster) moveBatch(src *server.Engine, parts []*server.Engine, moving map[core.UserID]moveTarget, batch []core.UserID) {
	// Group the batch by destination so each ImportUsers call is one
	// slice per target engine.
	byTo := make(map[int32][]core.UserID)
	for _, u := range batch {
		byTo[moving[u].to] = append(byTo[moving[u].to], u)
	}
	for to, users := range byTo {
		dst := parts[to]
		states := src.ExportUsers(users)
		dst.ImportUsers(states)
		for _, u := range users {
			// Drain the source's lease/refresh cycle. ImportUsers has
			// already queued a refresh on the destination, so owed work
			// is never dropped, only re-homed.
			if s := src.Scheduler(); s != nil {
				s.Evict(u)
			}
		}
		src.RemoveUsers(users)
		c.usersMoved.Add(int64(len(states)))
	}
}
