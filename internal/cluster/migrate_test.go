package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
)

// TestOnePartitionRingEquivalence pins the elastic topology's
// compatibility floor: a 1-partition ring cluster serves byte-identical
// job payloads — and identical recommendations and neighborhoods — to a
// plain engine under the same seed and workload. The old fixed-hash
// path is gone; this is the test that proves nothing depended on it.
func TestOnePartitionRingEquivalence(t *testing.T) {
	cfg := testConfig()
	engine := server.NewEngine(cfg)
	clus := New(cfg, 1)
	defer clus.Close()
	w := widget.New()

	const users = 30
	for round := 0; round < 3; round++ {
		for u := core.UserID(1); u <= users; u++ {
			item := core.ItemID(uint32(u)*11 + uint32(round))
			if err := engine.Rate(tctx, u, item, true); err != nil {
				t.Fatal(err)
			}
			if err := clus.Rate(tctx, u, item, true); err != nil {
				t.Fatal(err)
			}

			ebody, err := engine.AppendJob(tctx, u, nil)
			if err != nil {
				t.Fatalf("engine AppendJob(%d): %v", u, err)
			}
			cbody, err := clus.AppendJob(tctx, u, nil)
			if err != nil {
				t.Fatalf("cluster AppendJob(%d): %v", u, err)
			}
			if !bytes.Equal(ebody, cbody) {
				t.Fatalf("round %d user %d: payload bytes diverged:\nengine  % x\ncluster % x",
					round, u, ebody, cbody)
			}

			ejob, err := engine.Job(tctx, u)
			if err != nil {
				t.Fatal(err)
			}
			eres, _ := w.Execute(ejob)
			erecs, err := engine.ApplyResult(tctx, eres)
			if err != nil {
				t.Fatal(err)
			}
			crecs := cycle(t, clus, w, u)
			if fmt.Sprint(erecs) != fmt.Sprint(crecs) {
				t.Fatalf("round %d user %d: recommendations diverged: %v vs %v", round, u, erecs, crecs)
			}
		}
	}
}

// scaleTestCluster builds a cluster with a fast scheduler, seeded with
// `users` rated users.
func scaleTestCluster(t *testing.T, parts, users int) *Cluster {
	t.Helper()
	cfg := testConfig()
	cfg.LeaseTTL = 200 * time.Millisecond
	cfg.FallbackWorkers = 2
	c := New(cfg, parts)
	for u := core.UserID(1); u <= core.UserID(users); u++ {
		for j := 0; j < 3; j++ {
			if err := c.Rate(tctx, u, core.ItemID(uint32(u)*5+uint32(j)), j%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestScaleOutMovesState: a 2→4 scale-out relocates exactly the users
// whose ring arc changed hands, preserves every profile byte-for-byte,
// carries KNN rows along, and leaves each user on exactly one
// partition — the one the 4-partition ring owns her with.
func TestScaleOutMovesState(t *testing.T) {
	const users = 200
	c := scaleTestCluster(t, 2, users)
	defer c.Close()
	w := widget.New()
	for u := core.UserID(1); u <= users; u++ {
		cycle(t, c, w, u)
	}

	before := make(map[core.UserID]core.Profile, users)
	knnBefore := make(map[core.UserID][]core.UserID, users)
	for u := core.UserID(1); u <= users; u++ {
		before[u] = c.Profile(u)
		hood, _ := c.Neighbors(tctx, u)
		knnBefore[u] = hood
	}
	oldRing := c.Ring()
	newRing := NewRing(4, DefaultVNodes)
	wantMoved := 0
	for u := core.UserID(1); u <= users; u++ {
		if oldRing.Owner(u) != newRing.Owner(u) {
			wantMoved++
		}
	}
	if wantMoved == 0 || wantMoved == users {
		t.Fatalf("degenerate move set %d/%d; ring broken", wantMoved, users)
	}

	if err := c.Scale(tctx, 4); err != nil {
		t.Fatal(err)
	}

	if got := c.NumPartitions(); got != 4 {
		t.Fatalf("NumPartitions = %d after Scale(4)", got)
	}
	if c.Stats()["migrating"].(bool) {
		t.Fatal("migrating still true after Scale returned")
	}
	if got := c.Topology().UsersMovedTotal; got != int64(wantMoved) {
		t.Fatalf("users moved = %d, want %d", got, wantMoved)
	}
	for u := core.UserID(1); u <= users; u++ {
		owner := c.Partition(u)
		copies := 0
		for i := 0; i < 4; i++ {
			if c.Engine(i).KnownUser(u) {
				copies++
				if i != owner {
					t.Fatalf("user %d stored on partition %d but owned by %d", u, i, owner)
				}
			}
		}
		if copies != 1 {
			t.Fatalf("user %d stored on %d partitions", u, copies)
		}
		if !before[u].Equal(c.Profile(u)) {
			t.Fatalf("user %d: profile changed across scale-out:\nbefore %v\nafter  %v",
				u, before[u], c.Profile(u))
		}
		hood, _ := c.Neighbors(tctx, u)
		if fmt.Sprint(hood) != fmt.Sprint(knnBefore[u]) {
			t.Fatalf("user %d: KNN row changed across scale-out: %v → %v", u, knnBefore[u], hood)
		}
	}
	// The scaled cluster keeps serving full cycles.
	for u := core.UserID(1); u <= 20; u++ {
		cycle(t, c, w, u)
	}
}

// TestScaleRoundTripOwnership is the satellite equivalence test:
// Scale(N)→Scale(M)→Scale(N) round-trips ownership exactly — every user
// ends on the partition the original topology owned her with, with her
// profile intact.
func TestScaleRoundTripOwnership(t *testing.T) {
	const users = 150
	c := scaleTestCluster(t, 2, users)
	defer c.Close()

	ownerBefore := make(map[core.UserID]int, users)
	profBefore := make(map[core.UserID]core.Profile, users)
	for u := core.UserID(1); u <= users; u++ {
		ownerBefore[u] = c.Partition(u)
		profBefore[u] = c.Profile(u)
	}
	if err := c.Scale(tctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Scale(tctx, 2); err != nil {
		t.Fatal(err)
	}
	for u := core.UserID(1); u <= users; u++ {
		if got := c.Partition(u); got != ownerBefore[u] {
			t.Fatalf("user %d: ownership %d → %d did not round-trip", u, ownerBefore[u], got)
		}
		if !c.Engine(ownerBefore[u]).KnownUser(u) {
			t.Fatalf("user %d not stored on her round-tripped owner %d", u, ownerBefore[u])
		}
		if !profBefore[u].Equal(c.Profile(u)) {
			t.Fatalf("user %d: profile did not survive the round trip", u)
		}
	}
}

// TestScaleInDrainsRemovedPartitions: a 4→2 scale-in moves every user
// off the removed partitions, and leases minted by their (retired)
// lanes report unknown instead of misrouting.
func TestScaleInDrainsRemovedPartitions(t *testing.T) {
	const users = 120
	c := scaleTestCluster(t, 4, users)
	defer c.Close()

	// Hold a lease minted by a partition that is about to be removed.
	var removedLease uint64
	deadline := time.Now().Add(2 * time.Second)
	for removedLease == 0 && time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(tctx, 200*time.Millisecond)
		job, err := c.NextJob(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if job == nil {
			break
		}
		if pi := c.LanePartition(job.Lease); pi >= 2 {
			removedLease = job.Lease
		} else {
			c.Ack(tctx, job.Lease, true)
		}
	}

	if err := c.Scale(tctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.NumPartitions(); got != 2 {
		t.Fatalf("NumPartitions = %d after Scale(2)", got)
	}
	total := 0
	for i := 0; i < 2; i++ {
		total += c.Engine(i).Profiles().Len()
	}
	if total != users {
		t.Fatalf("population %d after scale-in, want %d", total, users)
	}
	for u := core.UserID(1); u <= users; u++ {
		if p := c.Partition(u); !c.Engine(p).KnownUser(u) {
			t.Fatalf("user %d missing from her owner %d after scale-in", u, p)
		}
	}
	if removedLease != 0 {
		if err := c.Ack(tctx, removedLease, true); !errors.Is(err, server.ErrUnknownLease) {
			t.Fatalf("ack of retired-lane lease = %v, want ErrUnknownLease", err)
		}
	}
}

// TestMidMoveResultDoubleRoutes: a result computed from a job issued
// before the migration, arriving while the user is mid-move (topology
// published, state not yet streamed), is resolved against the minting
// partition and folded into the new owner — no refresh computed across
// the window is lost.
func TestMidMoveResultDoubleRoutes(t *testing.T) {
	const users = 100
	c := scaleTestCluster(t, 2, users)
	defer c.Close()
	w := widget.New()

	// Find a user the 2→4 scale will move.
	oldRing, newRing := c.Ring(), NewRing(4, DefaultVNodes)
	var moved core.UserID
	for u := core.UserID(1); u <= users; u++ {
		if oldRing.Owner(u) != newRing.Owner(u) {
			moved = u
			break
		}
	}
	if moved == 0 {
		t.Fatal("no user moves 2→4")
	}

	job, err := c.Job(tctx, moved)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)

	var hookErr error
	var hookRecs []core.ItemID
	var hookJobLiked int
	c.moveHook = func() {
		hookRecs, hookErr = c.ApplyResult(tctx, res)
		// Jobs for a mid-move, not-yet-imported user must come from the
		// source — assembled from her real profile, not the
		// destination's empty stub.
		if job, err := c.Job(tctx, moved); err == nil {
			hookJobLiked = len(job.Profile.Liked) + len(job.Profile.Disliked)
		}
	}
	if err := c.Scale(tctx, 4); err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatalf("mid-move result did not double-route: %v", hookErr)
	}
	if len(hookRecs) == 0 {
		t.Fatal("mid-move fold-in returned no recommendations")
	}
	if hookJobLiked == 0 {
		t.Fatal("mid-move job assembled from an empty profile; source gate missing")
	}
	// The refreshed row must live on the new owner.
	hood, err := c.Neighbors(tctx, moved)
	if err != nil || len(hood) == 0 {
		t.Fatalf("moved user's refreshed KNN row lost: %v %v", hood, err)
	}
	if !c.Engine(newRing.Owner(moved)).KnownUser(moved) {
		t.Fatal("moved user not on new owner after migration")
	}
}

// TestStaleResultForMovedUserRejected: after the migration completes, a
// straggler result from a pre-migration job for a moved user surfaces
// server.ErrMoved — rejected (the client refreshes its topology), never
// folded into the partition that no longer owns the user.
func TestStaleResultForMovedUserRejected(t *testing.T) {
	const users = 100
	c := scaleTestCluster(t, 2, users)
	defer c.Close()
	w := widget.New()

	oldRing, newRing := c.Ring(), NewRing(4, DefaultVNodes)
	var moved core.UserID
	for u := core.UserID(1); u <= users; u++ {
		if oldRing.Owner(u) != newRing.Owner(u) {
			moved = u
			break
		}
	}
	job, err := c.Job(tctx, moved)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)

	if err := c.Scale(tctx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyResult(tctx, res); !errors.Is(err, server.ErrMoved) {
		t.Fatalf("stale result for moved user = %v, want ErrMoved", err)
	}
	// The same straggler for a user that did NOT move still applies:
	// the epoch bump kept the previous epoch resolvable.
	var stayed core.UserID
	for u := core.UserID(1); u <= users; u++ {
		if oldRing.Owner(u) == newRing.Owner(u) {
			stayed = u
			break
		}
	}
	job2, err := c.Job(tctx, stayed) // note: issued post-migration
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := w.Execute(job2)
	if _, err := c.ApplyResult(tctx, res2); err != nil {
		t.Fatalf("result for unmoved user rejected: %v", err)
	}
}

// TestScaleOutUnderTraffic is the acceptance anchor: a 2→4 scale-out
// under concurrent rating ingest, user-driven personalization cycles
// and pull-based workers loses zero acknowledged ratings, converges to
// a clean 4-partition topology (migrating:false, every user on exactly
// her ring owner), and runs race-clean (this package is on the CI -race
// list).
func TestScaleOutUnderTraffic(t *testing.T) {
	const users = 300
	c := scaleTestCluster(t, 2, users)
	defer c.Close()

	type ack struct {
		u    core.UserID
		item core.ItemID
	}
	ctx, cancel := context.WithCancel(tctx)
	var wg sync.WaitGroup
	acked := make([][]ack, 4) // one slab per rater, no shared state

	// Raters: unique always-liked (user, item) pairs, recorded only
	// after Rate acknowledged.
	for r := 0; r < len(acked); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				u := core.UserID(uint32(r*7919+i)%users + 1)
				item := core.ItemID(1_000_000 + uint32(r)*100_000 + uint32(i))
				if err := c.Rate(ctx, u, item, true); err != nil {
					return
				}
				acked[r] = append(acked[r], ack{u: u, item: item})
			}
		}(r)
	}
	// User-driven personalization cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := widget.New()
		for i := 0; ctx.Err() == nil; i++ {
			u := core.UserID(uint32(i*31)%users + 1)
			job, err := c.Job(ctx, u)
			if err != nil {
				continue
			}
			res, _ := w.Execute(job)
			c.ApplyResult(ctx, res) // stale/moved stragglers are the protocol working
		}
	}()
	// Pull-based workers draining the staleness queue.
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := widget.New()
			for ctx.Err() == nil {
				jctx, jcancel := context.WithTimeout(ctx, 100*time.Millisecond)
				job, err := c.NextJob(jctx)
				jcancel()
				if err != nil || job == nil {
					continue
				}
				res, _ := w.Execute(job)
				if _, err := c.ApplyResult(ctx, res); err != nil && job.Lease != 0 {
					c.Ack(ctx, job.Lease, false)
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	if err := c.Scale(tctx, 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	cancel()
	wg.Wait()

	if got := c.NumPartitions(); got != 4 {
		t.Fatalf("NumPartitions = %d", got)
	}
	if c.Stats()["migrating"].(bool) {
		t.Fatal("migrating still true after scale")
	}
	// Zero acknowledged-rating loss: every acked (u, item) is in u's
	// profile on her current owner.
	lost := 0
	total := 0
	for _, slab := range acked {
		for _, a := range slab {
			total++
			if !c.Profile(a.u).LikedContains(a.item) {
				lost++
				t.Errorf("acknowledged rating lost: user %d item %d", a.u, a.item)
				if lost > 5 {
					t.Fatalf("… and more (%d/%d checked)", lost, total)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no ratings were acknowledged; traffic harness broken")
	}
	// Every user on exactly her ring owner.
	for u := core.UserID(1); u <= users; u++ {
		owner := c.Partition(u)
		for i := 0; i < 4; i++ {
			if c.Engine(i).KnownUser(u) != (i == owner) {
				t.Fatalf("user %d misplaced: stored-on-%d=%v, owner=%d", u, i, c.Engine(i).KnownUser(u), owner)
			}
		}
	}
	t.Logf("traffic: %d acknowledged ratings, %d users moved", total, c.Topology().UsersMovedTotal)
}

// TestScaleInMidMoveWindow pins the scale-in mid-move surface: while a
// 4→2 migration is streaming, users leaving a *removed* partition must
// stay fully serviceable — reads reach the retired source engine, jobs
// are assembled from the real profile, a pre-scale result double-routes
// into the surviving owner, and the retired partition's lease lane
// still acks. (Regression: these paths used to index t.parts[from] out
// of range and panic.)
func TestScaleInMidMoveWindow(t *testing.T) {
	const users = 120
	c := scaleTestCluster(t, 4, users)
	defer c.Close()
	w := widget.New()
	for u := core.UserID(1); u <= users; u++ {
		cycle(t, c, w, u)
	}

	// A user currently owned by a partition the scale-in removes.
	var victim core.UserID
	for u := core.UserID(1); u <= users; u++ {
		if c.Partition(u) >= 2 {
			victim = u
			break
		}
	}
	if victim == 0 {
		t.Fatal("no user on a to-be-removed partition")
	}
	profBefore := c.Profile(victim)
	job, err := c.Job(tctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)

	var hookErrs []error
	c.moveHook = func() {
		if !c.KnownUser(victim) {
			hookErrs = append(hookErrs, fmt.Errorf("victim unknown mid-move"))
		}
		if p := c.Profile(victim); !p.Equal(profBefore) {
			hookErrs = append(hookErrs, fmt.Errorf("victim profile unreadable mid-move: %v", p))
		}
		if _, err := c.Neighbors(tctx, victim); err != nil {
			hookErrs = append(hookErrs, fmt.Errorf("neighbors mid-move: %w", err))
		}
		if j, err := c.Job(tctx, victim); err != nil {
			hookErrs = append(hookErrs, fmt.Errorf("job mid-move: %w", err))
		} else if len(j.Profile.Liked)+len(j.Profile.Disliked) == 0 {
			hookErrs = append(hookErrs, fmt.Errorf("mid-move job from empty profile"))
		}
		if _, err := c.ApplyResult(tctx, res); err != nil {
			hookErrs = append(hookErrs, fmt.Errorf("pre-scale result did not double-route: %w", err))
		}
		if job.Lease != 0 {
			// The lease was retired by the double-routed fold-in above;
			// the lane itself must still resolve to the retired engine
			// (unknown_lease, not a misroute or panic).
			if err := c.Ack(tctx, job.Lease, true); err != nil && !errors.Is(err, server.ErrUnknownLease) {
				hookErrs = append(hookErrs, fmt.Errorf("retired-lane ack mid-move: %w", err))
			}
		}
	}
	if err := c.Scale(tctx, 2); err != nil {
		t.Fatal(err)
	}
	for _, err := range hookErrs {
		t.Error(err)
	}
	if got := c.Partition(victim); got >= 2 || !c.Engine(got).KnownUser(victim) {
		t.Fatalf("victim not settled on a surviving partition (owner %d)", got)
	}
	if !c.Profile(victim).Equal(profBefore) {
		t.Fatal("victim profile lost across scale-in")
	}
	hood, err := c.Neighbors(tctx, victim)
	if err != nil || len(hood) == 0 {
		t.Fatalf("victim's double-routed KNN row lost: %v %v", hood, err)
	}
}
