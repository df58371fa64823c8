// Package cluster implements a user-partitioned cluster of HyRec server
// engines behind a single front-end — the horizontal-scaling layer the
// paper's "millions of users" ambition calls for once one machine's
// memory and lock domains become the bottleneck.
//
// A Cluster owns N partitions, each a full server.Engine with its own
// profile table, KNN table, anonymiser and sampler RNG. Users are mapped
// to partitions by a consistent-hash ring with virtual nodes (ring.go),
// so routing is stateless and deterministic. N is fixed when the
// cluster is built: a process gains no CPU or memory by splitting its
// users more finely, so capacity grows by node count instead — the
// node plane (internal/node) runs the same ring in every process and
// moves whole partitions between processes by node-map epoch. A
// restart may still pick a different N over the same snapshot: the
// persist layer replays each restored user through the new ring.
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
package cluster

import (
	"context"
	"fmt"
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
// cluster-level seed.
func PartitionSeed(seed int64, i int) int64 { return seed + int64(i)*seedStride }

// laneStep is the modulus of the lease lanes: partition i's scheduler
// mints lease IDs ≡ i+1 (mod laneStep), so (lease-1) mod laneStep names
// the minting partition. Every node of a deployment builds the same
// lanes, so any node can route any lease; New bounds the partition
// count by it.
const laneStep = 1 << 20

// Cluster is a user-partitioned set of server engines behind one
// front-end. All methods are safe for concurrent use.
type Cluster struct {
	cfg   server.Config
	ring  *Ring
	parts []*server.Engine
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
}

// New builds a cluster of nParts engines from cfg. Partition i runs with
// seed PartitionSeed(cfg.Seed, i); all other configuration is shared.
// It panics on nParts outside [1, 2^20] or an invalid cfg (programmer
// error), mirroring server.NewEngine.
func New(cfg server.Config, nParts int) *Cluster {
	if nParts < 1 || nParts > laneStep {
		panic(fmt.Sprintf("cluster: nParts must be in [1, %d], got %d", laneStep, nParts))
	}
	// Each partition runs its own scheduler, but the fallback compute
	// budget is shared: cfg.FallbackWorkers bounds concurrent server-side
	// executions for the whole cluster, not per partition, so a churn
	// storm on every partition at once cannot multiply the residual
	// server compute by N (the Section 5.4 cost constraint).
	if cfg.SchedulerEnabled() && cfg.FallbackWorkers > 0 && cfg.FallbackBudget == nil {
		cfg.FallbackBudget = sched.NewBudget(cfg.FallbackWorkers)
	}
	c := &Cluster{
		cfg:           cfg,
		ring:          NewRing(nParts, DefaultVNodes),
		parts:         make([]*server.Engine, nParts),
		exchange:      cfg.K,
		dispatchReady: make(chan struct{}, 1),
	}
	c.peers = EnginePeers{Cluster: c}
	notify := func() {
		select {
		case c.dispatchReady <- struct{}{}:
		default:
		}
	}
	for i := range c.parts {
		pcfg := cfg
		pcfg.Seed = PartitionSeed(cfg.Seed, i)
		e := server.NewEngine(pcfg)
		if s := e.Scheduler(); s != nil {
			s.SetIDSpace(uint64(i)+1, laneStep)
			s.OnReady(notify)
		}
		e.SetSampler(&exchangeSampler{base: server.NewDefaultSampler(e), cluster: c, home: i})
		e.SetProfileResolver(c.foreignProfile(i))
		c.parts[i] = e
	}
	return c
}

// Config returns the cluster-level configuration (partition 0's seed).
func (c *Cluster) Config() server.Config { return c.cfg }

// NumPartitions returns the number of partitions.
func (c *Cluster) NumPartitions() int { return len(c.parts) }

// Engine returns partition i's engine (metrics, tables, meters).
func (c *Cluster) Engine(i int) *server.Engine { return c.parts[i] }

// Ring returns the consistent-hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Partition returns the index of the partition that owns u: a pure
// function of (u, ring), stable under user churn and identical across
// restarts of the same partition count.
func (c *Cluster) Partition(u core.UserID) int { return c.ring.Owner(u) }

// owner returns the engine that owns u.
func (c *Cluster) owner(u core.UserID) *server.Engine { return c.parts[c.ring.Owner(u)] }

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
		p := c.ring.Owner(u)
		if p == home {
			return core.Profile{}, false
		}
		return c.parts[p].Profiles().Get(u), true
	}
}

// Rate records a rating on the partition that owns u (Arrow 1 of
// Figure 1, routed).
func (c *Cluster) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	return c.owner(u).Rate(ctx, u, item, liked)
}

// RateBatch records many opinions: split by owning partition, each
// partition's share is one Engine.RateBatch, so each partition copies a
// user's profile once per batch.
func (c *Cluster) RateBatch(ctx context.Context, ratings []core.Rating) error {
	grouped, end := SplitByPartition(ratings, len(c.parts), c.ring.Owner)
	for p, e := range c.parts {
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

// Job assembles u's personalization job on the owning partition. The
// candidate set mixes the partition-local §3.1 rule with cross-partition
// exchange candidates; every pseudonym in the job belongs to the
// assembling partition's anonymiser.
func (c *Cluster) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	return c.owner(u).Job(ctx, u)
}

// AppendJob assembles and serializes u's job on the owning partition
// (the pooled zero-allocation serving path).
func (c *Cluster) AppendJob(ctx context.Context, u core.UserID, dst []byte) ([]byte, error) {
	return c.owner(u).AppendJob(ctx, u, dst)
}

// route finds the partition that minted res's pseudonyms. When the
// result carries a lease, its lane gives the minting partition in O(1)
// — the common case for worker-computed results — and the scan over all
// partitions remains only as the fallback for leaseless (legacy
// synchronous) results and for leases whose verification fails. A
// partition that both minted and owns the resolved user wins; a
// partition that owns the resolved user but does not know her is kept
// as the fallback so the owning engine can report its own error — but
// only while every engine still resolves the result's epoch. Once one of
// them has evicted it, that one may be the minter, and an ownership-only
// match elsewhere is then another partition's Feistel inversion landing
// on an ID it happens to own: the result is stale, not a result for an
// unknown user, and route reports it unroutable (ErrUnroutable wraps
// server.ErrStaleEpoch).
func (c *Cluster) route(res *wire.Result) (*server.Engine, bool) {
	if pi := c.LanePartition(res.Lease); pi >= 0 {
		if u, ok := c.parts[pi].ResolveUser(core.UserID(res.UID), res.Epoch); ok && c.ring.Owner(u) == pi {
			return c.parts[pi], true
		}
	}
	var fb *server.Engine
	evicted := false
	for i, e := range c.parts {
		u, ok := e.ResolveUser(core.UserID(res.UID), res.Epoch)
		switch {
		case !ok:
			evicted = true
		case c.ring.Owner(u) != i:
			// A foreign-owned resolution is a wrong partition's Feistel
			// inversion yielding a random ID.
		case e.KnownUser(u):
			return e, true
		case fb == nil:
			fb = e
		}
	}
	return fb, fb != nil && !evicted
}

// ApplyResult routes a widget result to the partition whose anonymiser
// minted its pseudonyms — the partition that owns the user — and folds
// it in there, exactly the single-engine fold-in.
func (c *Cluster) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	e, ok := c.route(res)
	if !ok {
		return nil, fmt.Errorf("%w: uid alias %d epoch %d", ErrUnroutable, res.UID, res.Epoch)
	}
	return e.ApplyResult(ctx, res)
}

// ResolveUser inverts a user pseudonym against the partition that minted
// it. Like route, a known-user claim wins over ownership-only matches —
// a wrong partition's Feistel inversion yields a random ID that passes
// the ownership check ~1/N of the time, but is almost never registered.
// Transport layers use this for presence bookkeeping.
func (c *Cluster) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	var fb core.UserID
	var hasFB bool
	for i, e := range c.parts {
		u, ok := e.ResolveUser(alias, epoch)
		if !ok || c.ring.Owner(u) != i {
			continue
		}
		if e.KnownUser(u) {
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
	return c.owner(u).Neighbors(ctx, u)
}

// Recommendations returns u's most recent recommendations from the
// owning partition's bounded store.
func (c *Cluster) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	return c.owner(u).Recommendations(ctx, u, n)
}

// Close implements server.Service: it stops every partition's scheduler
// (sweeper + fallback pool). Safe to call multiple times.
func (c *Cluster) Close() error {
	for _, e := range c.parts {
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
func (c *Cluster) AppendNextJob(ctx context.Context, dst []byte) (body []byte, lease uint64, err error) {
	body = dst
	err = c.dispatch(ctx, func(e *server.Engine) (bool, error) {
		body, lease, err = e.TryAppendNextJob(dst)
		return lease != 0, err
	})
	return body, lease, err
}

// dispatch offers each partition to try — which leases that partition's
// stalest job if it has one — scanning round-robin so one busy partition
// cannot starve the others: the cursor advances across calls, so
// successive worker polls start at successive partitions. With nothing
// pending it sleeps on the partitions' shared readiness signal until ctx
// is done.
func (c *Cluster) dispatch(ctx context.Context, try func(*server.Engine) (leased bool, err error)) error {
	if !c.cfg.SchedulerEnabled() {
		return nil
	}
	timer := time.NewTimer(dispatchResweep)
	defer timer.Stop()
	for {
		start := int(c.dispatchCursor.Add(1) % uint64(len(c.parts)))
		for off := range c.parts {
			if leased, err := try(c.parts[(start+off)%len(c.parts)]); leased || err != nil {
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

// Ack implements server.LeaseAcker, routing the lease by its lane to
// the scheduler that minted it.
func (c *Cluster) Ack(ctx context.Context, lease uint64, done bool) error {
	pi := c.LanePartition(lease)
	if pi < 0 {
		return fmt.Errorf("%w: %d", server.ErrUnknownLease, lease)
	}
	return c.parts[pi].Ack(ctx, lease, done)
}

// LanePartition returns the index of the partition whose scheduler
// minted the given lease ID — (lease-1) mod laneStep — or -1 when the
// lease is zero or names no partition of this cluster.
func (c *Cluster) LanePartition(lease uint64) int {
	if pi := (lease - 1) % laneStep; lease != 0 && pi < uint64(len(c.parts)) {
		return int(pi)
	}
	return -1
}

// Profile returns u's profile snapshot from the owning partition.
func (c *Cluster) Profile(u core.UserID) core.Profile { return c.owner(u).Profiles().Get(u) }

// KnownUser reports whether u's owning partition has registered her.
func (c *Cluster) KnownUser(u core.UserID) bool { return c.owner(u).KnownUser(u) }

// RegisterUser registers u on her owning partition (idempotent) — the
// hook the HTTP layer's cookie minting uses.
func (c *Cluster) RegisterUser(u core.UserID) { c.owner(u).RegisterUser(u) }

// RotateAnonymizers advances every partition's anonymous mapping to a
// fresh epoch. A deployment calls this on the same timer a single engine
// would use.
func (c *Cluster) RotateAnonymizers() {
	for _, e := range c.parts {
		e.RotateAnonymizer()
	}
}

// RotateAnonymizer is the single-engine spelling of RotateAnonymizers
// (server.Backend): it rotates every partition.
func (c *Cluster) RotateAnonymizer() { c.RotateAnonymizers() }

// Stats aggregates bandwidth and table counters over all partitions and
// reports the per-partition user split so an operator can see routing
// balance at a glance.
func (c *Cluster) Stats() map[string]any {
	var jobBytes, resultBytes, messages, users, knn int64
	perPart := make([]int64, len(c.parts))
	for i, e := range c.parts {
		m := e.Meter()
		jobBytes += m.JobBytes()
		resultBytes += m.ResultBytes()
		messages += m.Messages()
		n := int64(e.Profiles().Len())
		perPart[i] = n
		users += n
		knn += int64(e.KNN().Len())
	}
	m := map[string]any{
		"partitions":     len(c.parts),
		"job_bytes":      jobBytes,
		"result_bytes":   resultBytes,
		"messages":       messages,
		"users":          users,
		"users_per_part": perPart,
		"knn_entries":    knn,
	}
	if c.cfg.SchedulerEnabled() {
		var agg sched.Stats
		for _, e := range c.parts {
			if s := e.Scheduler(); s != nil {
				agg.Add(s.Stats())
			}
		}
		server.AddSchedStats(m, agg)
	}
	return m
}

// Topology reports the shape of the cluster as served on
// GET /v1/topology.
func (c *Cluster) Topology() wire.Topology {
	return wire.Topology{Partitions: len(c.parts), VNodes: c.ring.VNodes()}
}

// A cluster is a full server.Backend, served by the shared front-end
// identically to a single engine.
var (
	_ server.Backend       = (*Cluster)(nil)
	_ server.UserDirectory = (*Cluster)(nil)
)

// Len returns the total number of registered users across partitions.
// Profile tables are disjoint by construction (foreign profiles are read
// through, never copied), so the sum is exact.
func (c *Cluster) Len() int {
	n := 0
	for _, e := range c.parts {
		n += e.Profiles().Len()
	}
	return n
}

// Users returns the union of all partitions' rosters (owner-partition
// order, then roster order; no duplicates by construction).
func (c *Cluster) Users() []core.UserID {
	out := make([]core.UserID, 0, c.Len())
	for _, e := range c.parts {
		out = append(out, e.Profiles().Users()...)
	}
	return out
}
