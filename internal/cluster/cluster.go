// Package cluster implements a user-partitioned cluster of HyRec server
// engines behind a single front-end — the horizontal-scaling layer the
// paper's "millions of users" ambition calls for once one machine's
// memory and lock domains become the bottleneck.
//
// A Cluster owns N partitions, each a full server.Engine with its own
// profile table, KNN table, anonymiser and sampler RNG. Users are mapped
// to partitions by a consistent-hash ring with virtual nodes (ring.go),
// so routing is stateless and deterministic — and, unlike the fixed
// multiplicative hash it replaced, *elastic*: Scale adds or removes
// partitions at runtime, streaming only the moved users' state between
// engines (migrate.go) while the rest of the population keeps serving
// uninterrupted.
//
// Partitioning alone would fragment the KNN graph into N disjoint
// neighbourhoods — a user could only ever discover neighbours inside her
// own partition, capping recall well below the single-engine baseline.
// The cluster therefore implements cross-partition candidate exchange:
// every partition's sampler tops up the §3.1 candidate set with random
// users drawn from sibling partitions (through the PeerSampler
// interface), and the engines resolve those foreign users' profiles at
// job-assembly time through the profile-resolver hook. Foreign users
// flow through the widget protocol and the KNN tables exactly like local
// ones — only their profile bytes live elsewhere — so the exchanged
// candidates let every user's neighbourhood converge toward the global
// KNN graph instead of a per-partition local optimum. The
// ClusterRecall experiment (internal/experiments) verifies recall@10
// stays within a few percent of the single-engine baseline.
//
// The whole topology — ring, engine set, lease-lane registry, and the
// set of users mid-migration — is published through one atomic pointer:
// every operation pins a consistent snapshot, and a concurrent Scale
// replaces the pointer rather than mutating anything a reader might
// hold.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/sched"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// ErrUnroutable is returned when no partition can claim a widget result:
// its (UID, epoch) pseudonym does not resolve to a user owned and known
// by any partition — either the epoch is stale on the minting partition
// or the result is garbage. It wraps server.ErrStaleEpoch so transport
// layers map it to the same status an unresolvable single-engine epoch
// gets (410 Gone).
var ErrUnroutable = fmt.Errorf("cluster: result not routable to any partition: %w", server.ErrStaleEpoch)

// seedStride separates the per-partition RNG seed lanes so sibling
// engines (and their anonymisers, which use seed+1) never share a stream.
// Partition 0 keeps the configured seed unchanged, which makes a
// 1-partition cluster bit-for-bit equivalent to a plain engine.
const seedStride = 1_000_003

// PartitionSeed derives the engine seed for partition i from the
// cluster-level seed. A partition created by a later Scale gets exactly
// the seed a static cluster of that size would have given it, so a
// scaled-out deployment and a statically-sized one are the same system.
func PartitionSeed(seed int64, i int) int64 { return seed + int64(i)*seedStride }

// moveTarget records one mid-migration user's source and destination
// partitions.
type moveTarget struct {
	from, to int32
}

// topology is one immutable snapshot of the cluster's shape. Scale
// publishes new snapshots through Cluster.topo; readers pin one per
// operation and never observe a half-applied change.
type topology struct {
	ring  *Ring
	parts []*server.Engine
	// lanes routes lease IDs back to the scheduler that minted them:
	// partition p mints IDs ≡ laneOf[p]+1 (mod laneStep), and
	// lanes[(id-1) mod laneStep] recovers p. Unlike the old
	// (lease-1) mod N rule, the registry survives scale events — lanes
	// are allocated monotonically and never reused, so a lease minted by
	// a long-removed partition can only report unknown, never misroute.
	lanes  map[uint64]int
	laneOf []uint64
	// moving, non-nil only while a Scale is streaming state, maps each
	// user whose ownership changed in the running migration to her
	// source and destination. Results for these users double-route:
	// resolved on the minting partition, folded into the owning one.
	moving map[core.UserID]moveTarget
	// retired, non-nil only while a scale-in streams state, holds the
	// engines of the partitions being removed (old indices
	// len(parts)…len(parts)+len(retired)-1). They stay addressable as
	// migration sources — mid-move reads, result resolution and lease
	// acks for jobs they minted — until the migration completes.
	retired []*server.Engine
}

// owner returns the engine that owns u under this topology.
func (t *topology) owner(u core.UserID) *server.Engine { return t.parts[t.ring.Owner(u)] }

// engineAt returns the engine for partition index i, reaching the
// retired engines of an in-flight scale-in for i >= len(parts). Only
// mid-move sources (moveTarget.from, lane-registry hits) ever carry
// such indices.
func (t *topology) engineAt(i int) *server.Engine {
	if i < len(t.parts) {
		return t.parts[i]
	}
	return t.retired[i-len(t.parts)]
}

// numEngines counts live plus retired engines — the scan width for
// result resolution.
func (t *topology) numEngines() int { return len(t.parts) + len(t.retired) }

// Cluster is a user-partitioned set of server engines behind one
// front-end. All methods are safe for concurrent use, including
// concurrently with Scale.
type Cluster struct {
	cfg   server.Config
	topo  atomic.Pointer[topology]
	peers PeerSampler
	// exchange is the cross-partition top-up budget per job (see
	// SetExchange).
	exchange int
	// dispatchCursor rotates NextJob's scan start across calls so a
	// busy partition cannot starve its siblings' staleness queues.
	dispatchCursor atomic.Uint64
	// dispatchReady receives one token whenever any partition's
	// scheduler gains pending work, so NextJob sleeps instead of
	// polling (buffered: a notify with no waiter is kept for the next).
	dispatchReady chan struct{}
	notify        func()

	// scaleMu serializes Scale calls (and Close against them); nextLane
	// and closed are guarded by it.
	scaleMu  sync.Mutex
	nextLane uint64
	closed   bool

	// moveHook, when non-nil, runs inside Scale right after the new
	// topology is published and before any state streams — the test
	// seam for exercising the mid-move double-routing window.
	moveHook func()

	// migrating is true while a Scale is streaming user state; exposed
	// on /stats and /v1/topology.
	migrating atomic.Bool
	// usersMoved counts users migrated across all Scale calls (the
	// hyrec_migration_users_moved_total gauge).
	usersMoved atomic.Int64
}

// New builds a cluster of nParts engines from cfg. Partition i runs with
// seed PartitionSeed(cfg.Seed, i); all other configuration is shared.
// It panics on nParts < 1 or an invalid cfg (programmer error),
// mirroring server.NewEngine.
func New(cfg server.Config, nParts int) *Cluster {
	if nParts < 1 {
		panic(fmt.Sprintf("cluster: nParts must be >= 1, got %d", nParts))
	}
	// Each partition runs its own scheduler, but the fallback compute
	// budget is shared: cfg.FallbackWorkers bounds concurrent server-side
	// executions for the whole cluster, not per partition, so a churn
	// storm on every partition at once cannot multiply the residual
	// server compute by N (the Section 5.4 cost constraint). The budget
	// is created even for a 1-partition cluster (where it is a no-op
	// bound equal to the pool size) so a later Scale shares it too.
	if cfg.SchedulerEnabled() && cfg.FallbackWorkers > 0 && cfg.FallbackBudget == nil {
		cfg.FallbackBudget = sched.NewBudget(cfg.FallbackWorkers)
	}
	c := &Cluster{cfg: cfg, exchange: cfg.K}
	c.dispatchReady = make(chan struct{}, 1)
	c.notify = func() {
		select {
		case c.dispatchReady <- struct{}{}:
		default:
		}
	}
	c.peers = EnginePeers{Cluster: c}
	t := &topology{
		ring:   NewRing(nParts, DefaultVNodes),
		parts:  make([]*server.Engine, nParts),
		lanes:  make(map[uint64]int, nParts),
		laneOf: make([]uint64, nParts),
	}
	for i := range t.parts {
		lane := c.nextLane
		c.nextLane++
		t.parts[i] = c.newPartition(i, lane)
		t.lanes[lane] = i
		t.laneOf[i] = lane
	}
	c.topo.Store(t)
	return c
}

// newPartition builds the engine for partition index i, minting leases
// on the given lane. Shared by New and Scale so a scaled-out partition
// is indistinguishable from a statically-configured one.
func (c *Cluster) newPartition(i int, lane uint64) *server.Engine {
	pcfg := c.cfg
	pcfg.Seed = PartitionSeed(c.cfg.Seed, i)
	e := server.NewEngine(pcfg)
	if s := e.Scheduler(); s != nil {
		s.SetIDSpace(lane+1, laneStep)
		s.OnReady(c.notify)
	}
	e.SetSampler(&exchangeSampler{base: server.NewDefaultSampler(e), cluster: c, home: i})
	e.SetProfileResolver(c.foreignProfile(i))
	return e
}

// snap pins the current topology.
func (c *Cluster) snap() *topology { return c.topo.Load() }

// Config returns the cluster-level configuration (partition 0's seed).
func (c *Cluster) Config() server.Config { return c.cfg }

// NumPartitions returns the current number of partitions.
func (c *Cluster) NumPartitions() int { return len(c.snap().parts) }

// Engine returns partition i's engine (metrics, tables, meters).
func (c *Cluster) Engine(i int) *server.Engine { return c.snap().parts[i] }

// Ring returns the current consistent-hash ring.
func (c *Cluster) Ring() *Ring { return c.snap().ring }

// WithStableTopology runs fn with the topology frozen: no Scale can
// publish or stream state while fn executes. The persist layer captures
// cluster snapshots under it, so a concurrent scale-in cannot shrink
// the engine set mid-capture and a capture can never observe a mid-move
// user's state on two partitions at once.
func (c *Cluster) WithStableTopology(fn func(ring *Ring, parts []*server.Engine)) {
	c.scaleMu.Lock()
	defer c.scaleMu.Unlock()
	t := c.snap()
	fn(t.ring, t.parts)
}

// Partition returns the index of the partition that owns u under the
// current topology: a pure function of (u, ring), stable under user
// churn, identical across restarts of the same topology, and — by the
// ring's construction — moving only ~1/N of users per partition added
// or removed when the topology scales.
func (c *Cluster) Partition(u core.UserID) int { return c.snap().ring.Owner(u) }

// SetExchange overrides the number of cross-partition exchange candidates
// added to every candidate set (default: the configured K). Zero disables
// the exchange, which fragments the KNN graph into per-partition
// neighbourhoods — useful only as an ablation. Must be called before
// serving traffic.
func (c *Cluster) SetExchange(n int) {
	if n < 0 {
		panic("cluster: negative exchange budget")
	}
	c.exchange = n
}

// SetPeerSampler replaces the source of cross-partition exchange
// candidates (default: EnginePeers, which draws directly from sibling
// rosters). Must be called before serving traffic.
func (c *Cluster) SetPeerSampler(p PeerSampler) {
	if p == nil {
		panic("cluster: nil peer sampler")
	}
	c.peers = p
}

// foreignProfile builds the profile resolver for partition home: profiles
// of users owned by sibling partitions are read from the owning engine's
// slot table (the latest snapshot, or an empty profile for users the
// owner has not registered either — exactly the single-engine fallback).
// Local users report ok=false so the engine's own lookup stays in
// charge.
func (c *Cluster) foreignProfile(home int) server.ProfileResolver {
	return func(u core.UserID) (core.Profile, bool) {
		t := c.snap()
		p := t.ring.Owner(u)
		if p == home {
			return core.Profile{}, false
		}
		return t.parts[p].Profiles().Get(u), true
	}
}

// Rate records a rating on the partition that owns u (Arrow 1 of
// Figure 1, routed). A topology published concurrently is re-checked
// after the write: if ownership moved between pinning the snapshot and
// the profile update landing, the rating is re-applied on the new owner
// — ratings are idempotent set operations, so the double-apply is safe,
// and the re-check guarantees an acknowledged rating is never stranded
// on a partition the migration has already drained.
func (c *Cluster) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	t := c.snap()
	e := t.owner(u)
	if err := e.Rate(ctx, u, item, liked); err != nil {
		return err
	}
	if t2 := c.snap(); t2 != t {
		if e2 := t2.owner(u); e2 != e {
			return e2.Rate(ctx, u, item, liked)
		}
	}
	return nil
}

// RateBatch records many opinions: split by owning partition under one
// topology snapshot, each partition's share is one Engine.RateBatch, so
// each partition copies a user's profile once per batch. Rate's
// publish-race re-check runs once for the whole batch: if a topology was
// published meanwhile, the ratings whose owner changed are re-applied
// on their new owners, split the same way.
func (c *Cluster) RateBatch(ctx context.Context, ratings []core.Rating) error {
	t := c.snap()
	if err := t.rateByOwner(ctx, ratings); err != nil {
		return err
	}
	t2 := c.snap()
	if t2 == t {
		return nil
	}
	var moved []core.Rating
	for _, r := range ratings {
		if t2.owner(r.User) != t.owner(r.User) {
			moved = append(moved, r)
		}
	}
	return t2.rateByOwner(ctx, moved)
}

// rateByOwner hands each partition of t its share of ratings, in batch
// order, as one Engine.RateBatch.
func (t *topology) rateByOwner(ctx context.Context, ratings []core.Rating) error {
	grouped, end := SplitByPartition(ratings, len(t.parts), t.ring.Owner)
	for p, e := range t.parts {
		if rs := grouped[end[p]:end[p+1]]; len(rs) > 0 {
			if err := e.RateBatch(ctx, rs); err != nil {
				return err
			}
		}
	}
	return nil
}

// SplitByPartition groups ratings by partition into a new slice — a
// stable counting sort, so one user's ratings keep their order —
// partition p's share being grouped[end[p]:end[p+1]]. partition maps a
// user to her partition in [0, parts); ratings itself is left as it is.
func SplitByPartition(ratings []core.Rating, parts int, partition func(core.UserID) int) (grouped []core.Rating, end []int) {
	part := make([]int, len(ratings))
	end = make([]int, parts+1) // end[p+1]: where partition p's share ends
	for i, r := range ratings {
		part[i] = partition(r.User)
		end[part[i]+1]++
	}
	for p := 0; p < parts; p++ {
		end[p+1] += end[p]
	}
	grouped, next := make([]core.Rating, len(ratings)), append([]int(nil), end[:parts]...)
	for i, r := range ratings {
		grouped[next[part[i]]] = r
		next[part[i]]++
	}
	return grouped, end
}

// jobEngine picks the engine that assembles u's jobs: the ring owner,
// except for a mid-move user whose state has not been imported yet —
// her job must come from the source, or it would be assembled from an
// empty profile and the widget's junk result could then outrank the
// real imported row (ImportUsers keeps destination rows, which are
// normally newer). Results from source-minted jobs double-route back
// to the destination via the moving set.
func (t *topology) jobEngine(u core.UserID) *server.Engine {
	if mt, mov := t.moving[u]; mov && !t.parts[mt.to].KnownUser(u) {
		return t.engineAt(int(mt.from))
	}
	return t.owner(u)
}

// Job assembles u's personalization job on the owning partition. The
// candidate set mixes the partition-local §3.1 rule with cross-partition
// exchange candidates; every pseudonym in the job belongs to the
// assembling partition's anonymiser.
func (c *Cluster) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	return c.snap().jobEngine(u).Job(ctx, u)
}

// AppendJobPayload assembles and serializes u's job on the owning
// partition (the pooled zero-allocation serving path).
func (c *Cluster) AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error) {
	return c.snap().jobEngine(u).AppendJobPayload(ctx, u, jsonDst, gzDst)
}

// AppendJobJSON is AppendJobPayload without the gzip leg — the framed
// plane's serving path.
func (c *Cluster) AppendJobJSON(ctx context.Context, u core.UserID, jsonDst []byte) ([]byte, error) {
	return c.snap().jobEngine(u).AppendJobJSON(ctx, u, jsonDst)
}

// routed describes where a widget result resolves and where it applies.
type routed struct {
	// mint is the partition whose anonymiser minted the pseudonyms.
	mint *server.Engine
	// apply is the partition that owns the user now (== mint outside a
	// migration window).
	apply *server.Engine
	user  core.UserID
	// moved marks a result that resolved cleanly but whose user's
	// ownership changed in a completed migration — surfaced as
	// server.ErrMoved so clients refresh their topology.
	moved bool
}

// route finds the partition that minted res's pseudonyms. When the
// result carries a lease, the lane registry gives the minting partition
// in O(1) — the common case for worker-computed results — and the scan
// over all partitions remains only as the fallback for leaseless
// (legacy synchronous) results and for leases whose verification fails.
// Claim precedence mirrors the pre-ring routing: a partition that both
// minted and owns the resolved user wins; a mid-move source partition
// claims next (the result then double-routes to the destination); a
// completed move yields a moved claim; an ownership-only match is kept
// as the last fallback so the owning engine can report its own error —
// but only while every engine still resolves the result's epoch. Once
// one of them has evicted it, that one may be the minter, and an
// ownership-only match elsewhere is then another partition's Feistel
// inversion landing on an ID it happens to own: the result is stale, not
// a result for an unknown user, and route reports it unroutable
// (ErrUnroutable wraps server.ErrStaleEpoch).
func (c *Cluster) route(t *topology, res *wire.Result) (routed, bool) {
	if res.Lease != 0 {
		if pi, ok := t.lanes[(res.Lease-1)%laneStep]; ok {
			if r, ok := t.claim(pi, res); ok {
				return r, true
			}
		}
	}
	var fb routed
	var hasFB, hasMoved, evicted bool
	var moved routed
	// Retired scale-in sources are scanned too: jobs they minted are
	// still in flight mid-move and must double-route, not bounce.
	for i := 0; i < t.numEngines(); i++ {
		e := t.engineAt(i)
		u, ok := e.ResolveUser(core.UserID(res.UID), res.Epoch)
		if !ok {
			evicted = true
			continue
		}
		owner := t.ring.Owner(u)
		switch {
		case owner == i && e.KnownUser(u):
			return routed{mint: e, apply: e, user: u}, true
		case owner != i:
			if mt, mov := t.moving[u]; mov && int(mt.from) == i {
				return routed{mint: e, apply: t.parts[mt.to], user: u}, true
			}
			// A foreign-owned resolution is almost always a wrong
			// partition's Feistel inversion yielding a random ID; only
			// when the owner actually knows the user is this a genuine
			// post-migration straggler.
			if !hasMoved && t.parts[owner].KnownUser(u) {
				moved = routed{mint: e, apply: t.parts[owner], user: u, moved: true}
				hasMoved = true
			}
		default: // owner == i, user unknown
			if !hasFB {
				fb = routed{mint: e, apply: e, user: u}
				hasFB = true
			}
		}
	}
	if hasMoved {
		return moved, true
	}
	if hasFB && !evicted {
		return fb, true
	}
	return routed{}, false
}

// claim verifies a lane-registry hit: partition pi must resolve the
// pseudonym and either own the user, be mid-move source for her, or
// have lost her to a completed migration (moved). Reports ok=false when
// verification fails, sending route back to the full scan.
func (t *topology) claim(pi int, res *wire.Result) (routed, bool) {
	e := t.engineAt(pi)
	u, ok := e.ResolveUser(core.UserID(res.UID), res.Epoch)
	if !ok {
		return routed{}, false
	}
	owner := t.ring.Owner(u)
	if owner == pi {
		return routed{mint: e, apply: e, user: u}, true
	}
	if mt, mov := t.moving[u]; mov && int(mt.from) == pi {
		return routed{mint: e, apply: t.parts[mt.to], user: u}, true
	}
	if t.parts[owner].KnownUser(u) {
		return routed{mint: e, apply: t.parts[owner], user: u, moved: true}, true
	}
	return routed{}, false
}

// ApplyResult routes a widget result to the partition whose anonymiser
// minted its pseudonyms and folds it into the partition that owns the
// user. Outside a migration window those are the same engine and the
// call is exactly the single-engine fold-in. For users mid-move the
// result double-routes: pseudonyms are resolved against the minting
// (source) partition's anonymiser and the refreshed row is written to
// the destination, so no refresh computed across the migration window
// is lost. A result for a user whose move completed in an earlier
// migration fails with server.ErrMoved — rejected, never misrouted —
// and the typed client reacts by refreshing its topology.
func (c *Cluster) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	t := c.snap()
	r, ok := c.route(t, res)
	if !ok {
		return nil, fmt.Errorf("%w: uid alias %d epoch %d", ErrUnroutable, res.UID, res.Epoch)
	}
	if r.moved {
		return nil, fmt.Errorf("%w: uid alias %d epoch %d", server.ErrMoved, res.UID, res.Epoch)
	}
	if r.apply == r.mint {
		return r.mint.ApplyResult(ctx, res)
	}
	// Double-route: resolve where minted, fold in where owned.
	rr, err := r.mint.ResolveResult(res)
	if err != nil {
		return nil, err
	}
	if !r.apply.KnownUser(rr.User) && !r.mint.KnownUser(rr.User) {
		return nil, fmt.Errorf("%w: %v", server.ErrUnknownUser, rr.User)
	}
	recs, err := r.apply.ApplyResolved(ctx, rr)
	if err != nil {
		return nil, err
	}
	// The fold-in was computed against the source's (pre-move) candidate
	// pool, and ApplyResolved's implicit ack just marked the user fresh
	// on the destination — re-queue the re-convergence refresh
	// ImportUsers owes her instead of letting the stale-provenance
	// result retire it.
	r.apply.MarkStale(rr.User)
	// The lease (if any) lives on the minting partition's scheduler
	// until the migration coordinator evicts it; retire it so the
	// source does not re-issue a refresh the destination just absorbed.
	if rr.Lease != 0 {
		if s := r.mint.Scheduler(); s != nil {
			s.AckUser(rr.Lease, rr.User, true)
		}
	}
	return recs, nil
}

// ResolveUser inverts a user pseudonym against the partition that minted
// it. Like route, a known-user claim wins over ownership-only matches —
// a wrong partition's Feistel inversion yields a random ID that passes
// the ownership check ~1/N of the time, but is almost never registered.
// Transport layers use this for presence bookkeeping.
func (c *Cluster) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	t := c.snap()
	var fb core.UserID
	var hasFB bool
	for i := 0; i < t.numEngines(); i++ {
		e := t.engineAt(i)
		u, ok := e.ResolveUser(alias, epoch)
		if !ok {
			continue
		}
		owner := t.ring.Owner(u)
		if owner != i {
			mt, mov := t.moving[u]
			if !mov || int(mt.from) != i {
				continue
			}
		}
		if t.parts[owner].KnownUser(u) || e.KnownUser(u) {
			return u, true
		}
		if !hasFB {
			fb, hasFB = u, true
		}
	}
	return fb, hasFB
}

// Neighbors returns u's current KNN approximation from the owning
// partition. The list may contain users owned by sibling partitions —
// that is the cross-partition exchange working.
func (c *Cluster) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	t := c.snap()
	if mt, mov := t.moving[u]; mov && !t.parts[mt.to].KnownUser(u) {
		// Mid-move, pre-import: the source still holds the row.
		return t.engineAt(int(mt.from)).Neighbors(ctx, u)
	}
	return t.owner(u).Neighbors(ctx, u)
}

// Recommendations returns u's most recent recommendations from the
// owning partition's bounded store (consulting the mid-move source
// while the import is still in flight).
func (c *Cluster) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	t := c.snap()
	if mt, mov := t.moving[u]; mov && !t.parts[mt.to].KnownUser(u) {
		return t.engineAt(int(mt.from)).Recommendations(ctx, u, n)
	}
	return t.owner(u).Recommendations(ctx, u, n)
}

// Close implements server.Service: it stops every partition's scheduler
// (sweeper + fallback pool) and refuses further Scale calls. Safe to
// call multiple times.
func (c *Cluster) Close() error {
	c.scaleMu.Lock()
	defer c.scaleMu.Unlock()
	c.closed = true
	for _, e := range c.snap().parts {
		e.Close()
	}
	return nil
}

// dispatchResweep bounds how long dispatch sleeps without re-scanning —
// a safety net for a wakeup token consumed by a sibling waiter (the
// notification channel carries one token for any number of parked
// dispatchers).
const dispatchResweep = 250 * time.Millisecond

// NextJob implements server.JobSource over all partitions: it returns
// the next leased job from whichever partition has stale work (see
// dispatch). (nil, nil) means no work arrived in time.
func (c *Cluster) NextJob(ctx context.Context) (job *wire.Job, err error) {
	err = c.dispatch(ctx, func(e *server.Engine) (bool, error) {
		job, err = e.TryNextJob()
		return job != nil, err
	})
	return job, err
}

// AppendNextJob is part of server.Backend: NextJob in payload form,
// assembled and metered by the partition that leased the job.
func (c *Cluster) AppendNextJob(ctx context.Context, jsonDst, gzDst []byte, wantGz bool) (jsonBody, gzBody []byte, lease uint64, err error) {
	jsonBody, gzBody = jsonDst, gzDst
	err = c.dispatch(ctx, func(e *server.Engine) (bool, error) {
		jsonBody, gzBody, lease, err = e.TryAppendNextJob(jsonDst, gzDst, wantGz)
		return lease != 0, err
	})
	return jsonBody, gzBody, lease, err
}

// dispatch offers each partition to try — which leases that partition's
// stalest job if it has one — scanning round-robin so one busy partition
// cannot starve the others: the cursor advances across calls, so
// successive worker polls start at successive partitions. With nothing
// pending it sleeps on the partitions' shared readiness signal until ctx
// is done. Each scan pins the current topology, so partitions added by a
// concurrent Scale join the rotation on the next pass.
func (c *Cluster) dispatch(ctx context.Context, try func(*server.Engine) (leased bool, err error)) error {
	if !c.cfg.SchedulerEnabled() {
		return nil
	}
	timer := time.NewTimer(dispatchResweep)
	defer timer.Stop()
	for {
		t := c.snap()
		start := int(c.dispatchCursor.Add(1) % uint64(len(t.parts)))
		for off := range t.parts {
			if leased, err := try(t.parts[(start+off)%len(t.parts)]); leased || err != nil {
				return err
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(dispatchResweep)
		select {
		case <-ctx.Done():
			return nil
		case <-c.dispatchReady:
		case <-timer.C:
		}
	}
}

// Ack implements server.LeaseAcker, routing the lease through the lane
// registry to the scheduler that minted it. A lease from a lane retired
// by a scale-in reports unknown rather than misrouting to whichever
// partition happens to share the old modulus.
func (c *Cluster) Ack(ctx context.Context, lease uint64, done bool) error {
	if lease == 0 {
		return fmt.Errorf("%w: 0", server.ErrUnknownLease)
	}
	t := c.snap()
	pi, ok := t.lanes[(lease-1)%laneStep]
	if !ok {
		return fmt.Errorf("%w: %d (lease lane retired)", server.ErrUnknownLease, lease)
	}
	return t.engineAt(pi).Ack(ctx, lease, done)
}

// LanePartition returns the partition index whose scheduler minted the
// given lease ID through the lane registry, or -1 when the lease is
// zero or its lane has been retired by a scale-in.
func (c *Cluster) LanePartition(lease uint64) int {
	if lease == 0 {
		return -1
	}
	if pi, ok := c.snap().lanes[(lease-1)%laneStep]; ok {
		return pi
	}
	return -1
}

// Profile returns u's profile snapshot from the owning partition
// (consulting the mid-move source while the import is in flight).
func (c *Cluster) Profile(u core.UserID) core.Profile {
	t := c.snap()
	if mt, mov := t.moving[u]; mov && !t.parts[mt.to].KnownUser(u) {
		return t.engineAt(int(mt.from)).Profiles().Get(u)
	}
	return t.owner(u).Profiles().Get(u)
}

// KnownUser reports whether any partition has registered u (the owner
// outside a migration; owner or source mid-move).
func (c *Cluster) KnownUser(u core.UserID) bool {
	t := c.snap()
	if t.owner(u).KnownUser(u) {
		return true
	}
	mt, mov := t.moving[u]
	return mov && t.engineAt(int(mt.from)).KnownUser(u)
}

// RegisterUser registers u on its owning partition (idempotent) — the
// hook the HTTP layer's cookie minting uses. Like Rate, the topology is
// re-checked after the write: a brand-new user is in nobody's roster
// when a racing Scale diffs ownership, so without the re-apply her
// registration could be stranded on a partition the new ring does not
// map her to.
func (c *Cluster) RegisterUser(u core.UserID) {
	t := c.snap()
	t.owner(u).RegisterUser(u)
	if t2 := c.snap(); t2 != t {
		if e2 := t2.owner(u); e2 != t.owner(u) {
			e2.RegisterUser(u)
		}
	}
}

// RotateAnonymizers advances every partition's anonymous mapping to a
// fresh epoch. A deployment calls this on the same timer a single engine
// would use.
func (c *Cluster) RotateAnonymizers() {
	for _, e := range c.snap().parts {
		e.RotateAnonymizer()
	}
}

// RotateAnonymizer is the single-engine spelling of RotateAnonymizers
// (server.Backend): it rotates every partition.
func (c *Cluster) RotateAnonymizer() { c.RotateAnonymizers() }

// Stats aggregates bandwidth and table counters over all partitions and
// reports the per-partition user split so an operator can see routing
// balance at a glance, plus the elastic-topology gauges (migrating,
// topology_partitions, migration_users_moved_total).
func (c *Cluster) Stats() map[string]any {
	t := c.snap()
	var jsonBytes, gzipBytes, resultBytes, messages, users, knn int64
	perPart := make([]int64, len(t.parts))
	for i, e := range t.parts {
		m := e.Meter()
		jsonBytes += m.JSONBytes()
		gzipBytes += m.GzipBytes()
		resultBytes += m.ResultBytes()
		messages += m.Messages()
		n := int64(e.Profiles().Len())
		perPart[i] = n
		users += n
		knn += int64(e.KNN().Len())
	}
	m := map[string]any{
		"partitions":                  len(t.parts),
		"topology_partitions":         int64(len(t.parts)),
		"migrating":                   c.migrating.Load(),
		"migration_users_moved_total": c.usersMoved.Load(),
		"json_bytes":                  jsonBytes,
		"gzip_bytes":                  gzipBytes,
		"result_bytes":                resultBytes,
		"messages":                    messages,
		"users":                       users,
		"users_per_part":              perPart,
		"knn_entries":                 knn,
	}
	if c.cfg.SchedulerEnabled() {
		var agg sched.Stats
		for _, e := range t.parts {
			if s := e.Scheduler(); s != nil {
				agg.Add(s.Stats())
			}
		}
		server.AddSchedStats(m, agg)
	}
	return m
}

// Topology reports the current shape of the cluster as served on
// GET /v1/topology.
func (c *Cluster) Topology() wire.Topology {
	t := c.snap()
	return wire.Topology{
		Partitions:      len(t.parts),
		VNodes:          t.ring.VNodes(),
		Migrating:       c.migrating.Load(),
		UsersMovedTotal: c.usersMoved.Load(),
	}
}

// A cluster is a full server.Backend, served by the shared front-end
// identically to a single engine, and the one elastic shape.
var (
	_ server.Backend       = (*Cluster)(nil)
	_ server.UserDirectory = (*Cluster)(nil)
	_ server.Scaler        = (*Cluster)(nil)
)

// Len returns the total number of registered users across partitions.
// Profile tables are disjoint by construction (foreign profiles are read
// through, never copied; migration deletes the source copy before the
// moving marker clears), so the sum is exact outside a migration window
// and at most transiently high inside one.
func (c *Cluster) Len() int {
	n := 0
	for _, e := range c.snap().parts {
		n += e.Profiles().Len()
	}
	return n
}

// Users returns the union of all partitions' rosters (owner-partition
// order, then roster order; no duplicates by construction).
func (c *Cluster) Users() []core.UserID {
	t := c.snap()
	out := make([]core.UserID, 0, c.Len())
	for _, e := range t.parts {
		out = append(out, e.Profiles().Users()...)
	}
	return out
}
