package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/sched"
	"hyrec/internal/topk"
	"hyrec/internal/wire"
)

// Sampler is the server-side customization point of Table 1: given a user
// and the neighborhood parameter k it returns the candidate set for the
// next KNN iteration. The default implementation follows Section 3.1
// (one-hop ∪ two-hop ∪ k random users); content providers may plug
// alternatives.
type Sampler interface {
	Sample(u core.UserID, k int) []core.UserID
}

// Config parametrises an Engine. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// K is the neighborhood size (10–20 in the paper).
	K int
	// R is the number of items recommended per personalization job.
	R int
	// Seed drives all server-side randomness (sampling, anonymisation).
	Seed int64
	// DisableAnonymizer sends real identifiers on the wire. Only for
	// debugging and ablations; the paper's deployment always anonymises.
	DisableAnonymizer bool
	// DisableProfileCache turns off the serialized-profile cache
	// (ablation: BenchmarkAblationProfileCache).
	DisableProfileCache bool
	// MaxProfileItems, when positive, truncates profiles embedded in
	// candidate sets to bound message size (Section 6 discussion).
	MaxProfileItems int
	// CandidateFilter, when non-nil, transforms every candidate profile
	// just before it is serialized into a personalization job. This is the
	// privacy hook the paper's conclusion calls for: internal/privacy
	// plugs differentially-private perturbation in here. The requesting
	// user's own profile is never filtered (it goes back to its owner).
	// Setting a filter bypasses the serialized-profile cache for
	// candidates, since filtered output may differ between jobs.
	CandidateFilter func(core.Profile) core.Profile
	// RecCacheUsers bounds the last-recommendations store: only the most
	// recently active users' recommendations are retained (LRU). Zero
	// selects the default (4096).
	RecCacheUsers int

	// The fields below enable the asynchronous job scheduler
	// (internal/sched). With all of them zero the engine runs the paper's
	// original synchronous pull flow, byte-for-byte: jobs carry no lease
	// metadata and nothing happens between Job and ApplyResult.

	// LeaseTTL, when positive, turns on the scheduler: every issued job
	// carries a lease that expires after this duration, after which the
	// job is re-issued (straggler handling).
	LeaseTTL time.Duration
	// LeaseRetries bounds lease re-issues before a job falls back to
	// server-side execution (0 = scheduler default, negative = none).
	LeaseRetries int
	// FallbackWorkers, when positive, runs a pool of server-side workers
	// that execute jobs locally — for leases that exhaust their retries
	// and for inactive users nobody computes for. Setting it also turns
	// on the scheduler (with the default lease TTL if LeaseTTL is zero).
	FallbackWorkers int
	// FallbackBudget, when non-nil, caps concurrent fallback executions
	// across engines — a cluster shares one so the server's residual
	// compute stays bounded globally.
	FallbackBudget *sched.Budget
	// FallbackMetric is the similarity metric the fallback executor
	// ranks neighbors with. Set it to whatever the deployment's widgets
	// use so server-refreshed rows and browser-refreshed rows agree on
	// the ordering. Nil selects the paper's default (cosine).
	FallbackMetric core.Similarity

	// The MaxInflight* fields bound the admission gate's per-class
	// concurrent request counts on both transport planes (HTTP mux and
	// framed listener); over-limit arrivals are shed with a typed
	// "overloaded" answer carrying a retry-after hint. Zero = unlimited
	// for that class. See internal/admit and ARCHITECTURE.md "Overload
	// & admission control". These knobs live on the engine Config so
	// every deployment shape (engine, cluster, node) carries them to
	// the front-end without a second config surface.

	// MaxInflightRating bounds concurrent rating-ingest requests
	// (POST /v1/rate, /rate, TRateBatch). Rating is the prioritized
	// class: full-queue arrivals wait a short grace window for a slot
	// before shedding, and its slots are isolated from read/worker
	// floods.
	MaxInflightRating int
	// MaxInflightWorker bounds concurrent worker job traffic: parked
	// long-polls (each holds a slot for the whole park), result posts,
	// lease acks.
	MaxInflightWorker int
	// MaxInflightRead bounds concurrent rec/neighbor reads and
	// user-driven job fetches — the first class shed under pressure.
	MaxInflightRead int
}

// SchedulerEnabled reports whether this configuration runs the
// asynchronous job scheduler.
func (c Config) SchedulerEnabled() bool {
	return c.LeaseTTL > 0 || c.FallbackWorkers > 0
}

// DefaultConfig returns the paper's default parameters: k=10, r=10,
// anonymisation and profile cache enabled.
func DefaultConfig() Config {
	return Config{K: 10, R: 10, Seed: 1}
}

func (c Config) validate() error {
	if c.K <= 0 {
		return errors.New("server: config K must be positive")
	}
	if c.R <= 0 {
		return errors.New("server: config R must be positive")
	}
	return nil
}

// Engine is the HyRec server: profile and KNN tables plus the Sampler and
// the Personalization orchestrator. It is transport-agnostic; http.go
// exposes it over the paper's web API, and the replay harness drives it
// in-process. Safe for concurrent use.
type Engine struct {
	cfg Config
	// slots holds every user the engine references (tables.go); profiles
	// and knn are its two table views.
	slots    *slotTable
	profiles ProfileTable
	knn      KNNTable
	anon     *core.Anonymizer
	meter    *wire.Meter
	sampler  Sampler
	// recs retains each recently-active user's last recommendations
	// (bounded LRU) so Recommendations can answer without recomputing.
	recs *recStore
	// resolveProfile, when non-nil, supplies profiles for users the local
	// table has never seen (see SetProfileResolver).
	resolveProfile ProfileResolver

	// rngs shards the sampling RNG by user so concurrent job assemblies
	// draw randomness without serializing on one mutex (the former
	// global rngMu; see BenchmarkJobParallel). Each shard is seeded
	// deterministically from cfg.Seed, so single-threaded runs remain
	// reproducible.
	rngs [numShards]rngShard

	// sched, when non-nil, runs the asynchronous job lifecycle: leases,
	// staleness-priority dispatch, straggler re-issue and the fallback
	// worker pool.
	sched *sched.Scheduler

	// Candidate-set size accounting (Figure 5): sum and count of candidate
	// sets issued since the last ResetCandidateStats call.
	candSum   atomic.Int64
	candCount atomic.Int64
}

// rngShard is one lock-sharded sampling RNG, padded to a full 64-byte
// cache line (8-byte mutex + 8-byte pointer + 48 pad) so neighbouring
// shards do not false-share under concurrent assembly.
type rngShard struct {
	mu  sync.Mutex
	rng *rand.Rand
	_   [48]byte
}

// rngSeedStride separates the per-shard RNG seed lanes (a large odd
// constant so sibling shards — and sibling partitions, which stride by
// cluster.seedStride — never share a stream).
const rngSeedStride = 0x9E3779B97F4A7C15 >> 3

// ErrStaleEpoch is returned when a widget result refers to an anonymiser
// epoch that is no longer resolvable.
var ErrStaleEpoch = errors.New("server: result from stale anonymiser epoch")

// ErrUnknownLease is returned when an acked lease is not outstanding:
// already completed, superseded, expired past its retry budget, or never
// issued.
var ErrUnknownLease = errors.New("server: unknown or expired lease")

// ErrUnknownUser is returned for operations on users never seen by Rate or
// Job.
var ErrUnknownUser = errors.New("server: unknown user")

// NewEngine builds an engine from cfg. It panics on invalid configuration
// (programmer error), mirroring stdlib constructors like topk.New.
func NewEngine(cfg Config) *Engine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	slots := newSlotTable()
	e := &Engine{
		cfg:      cfg,
		slots:    slots,
		profiles: ProfileTable{slots},
		knn:      KNNTable{slots},
		meter:    &wire.Meter{},
		recs:     newRecStore(cfg.RecCacheUsers),
	}
	for i := range e.rngs {
		e.rngs[i].rng = rand.New(rand.NewSource(cfg.Seed + int64(i)*rngSeedStride))
	}
	if !cfg.DisableAnonymizer {
		e.anon = core.NewAnonymizer(cfg.Seed + 1)
	}
	e.sampler = &defaultSampler{engine: e}
	if cfg.SchedulerEnabled() {
		e.sched = sched.New(sched.Config{
			LeaseTTL:        cfg.LeaseTTL,
			MaxRetries:      cfg.LeaseRetries,
			FallbackWorkers: cfg.FallbackWorkers,
			Budget:          cfg.FallbackBudget,
		}, e.refreshLocally)
	}
	return e
}

// Scheduler exposes the engine's job scheduler (nil when the
// configuration runs the synchronous flow). A cluster uses it to
// partition the lease-ID space; tests and stats read its counters.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Topology reports the shape: a single engine is a 1-partition
// topology.
func (e *Engine) Topology() wire.Topology { return wire.Topology{Partitions: 1} }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Meter returns the engine's bandwidth meter.
func (e *Engine) Meter() *wire.Meter { return e.meter }

// Profiles exposes the profile table (read-mostly; used by metrics).
func (e *Engine) Profiles() *ProfileTable { return &e.profiles }

// KNN exposes the KNN table (used by metrics and the sampler).
func (e *Engine) KNN() *KNNTable { return &e.knn }

// SetSampler replaces the candidate-set strategy (Table 1's Sampler
// interface). Must be called before serving traffic.
func (e *Engine) SetSampler(s Sampler) {
	if s == nil {
		panic("server: nil sampler")
	}
	e.sampler = s
}

// ProfileResolver supplies a profile for a user the engine's own table
// does not know. It reports ok=false when it cannot help either, in which
// case the engine falls back to an empty profile (the single-engine
// behaviour).
type ProfileResolver func(core.UserID) (core.Profile, bool)

// SetProfileResolver installs a fallback source for candidate profiles of
// users that are not in the local profile table. This is the hook a
// multi-partition deployment (internal/cluster) uses to let candidate
// sets reference users owned by sibling partitions: the IDs flow through
// the sampler and the KNN table as usual, and their profile bytes are
// fetched from the owning partition at job-assembly time. Must be called
// before serving traffic.
func (e *Engine) SetProfileResolver(fn ProfileResolver) { e.resolveProfile = fn }

// RotateAnonymizer advances the anonymous mapping to a fresh epoch
// (Section 3.1: identifiers are periodically shuffled). The HTTP server
// calls this on a timer; the replay harness on virtual-time boundaries.
func (e *Engine) RotateAnonymizer() {
	if e.anon != nil {
		e.anon.Advance()
	}
}

// Rate records that user u rated an item. This is the profile-update step
// the orchestrator performs when a user accesses the site (Arrow 1 of
// Figure 1).
func (e *Engine) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.rateRun(u, []core.Rating{{User: u, Item: item, Liked: liked}})
	return nil
}

// RateBatch records many opinions in one call: exactly what rating them
// one at a time gives, but grouped by user, in order of first
// appearance, so each user's run is one step (rateRun) — one profile
// copy per user per batch instead of one per rating. The context is
// checked between runs so a cancelled ingestion stops promptly. ratings
// is neither reordered nor retained: the node plane ships the same
// slice to the mirror after applying it.
func (e *Engine) RateBatch(ctx context.Context, ratings []core.Rating) error {
	g := groupByUser(ratings)
	defer g.release()
	for k, u := range g.users {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.rateRun(u, g.run(k))
	}
	return nil
}

// rateRun records u's run of ratings as one step: one slot lookup and
// lock, one copy-on-write merge (core.Profile.WithRatings), one
// MarkStale — the run invalidates u's KNN row, so u enters the
// staleness queue and a worker (or the fallback pool) refreshes it even
// if u's browser never asks.
func (e *Engine) rateRun(u core.UserID, run []core.Rating) {
	e.profiles.Update(u, func(p core.Profile) core.Profile { return p.WithRatings(run) })
	e.MarkStale(u)
}

// Neighbors returns u's current KNN approximation.
func (e *Engine) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.knn.Get(u), nil
}

// Recommendations returns the most recent recommendations applied for u
// (nil when none are retained). n <= 0 returns all retained items.
func (e *Engine) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recs := e.recs.Get(u)
	if n > 0 && len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

// Close implements Service: it stops the scheduler's sweeper and
// fallback pool (rotation timers live in the HTTP layer). Safe to call
// multiple times.
func (e *Engine) Close() error {
	if e.sched != nil {
		e.sched.Close()
	}
	return nil
}

// KnownUser reports whether u has been registered.
func (e *Engine) KnownUser(u core.UserID) bool { return e.profiles.Known(u) }

// RegisterUser registers u with an empty profile (idempotent), the hook
// the HTTP layer uses when minting cookie identities.
func (e *Engine) RegisterUser(u core.UserID) { e.slots.register(e.slots.mint(u)) }

// Stats reports the operational counters served by /stats. With the
// scheduler enabled, its lifecycle counters ride along under sched_*.
func (e *Engine) Stats() map[string]any {
	m := map[string]any{
		"job_bytes":    e.meter.JobBytes(),
		"result_bytes": e.meter.ResultBytes(),
		"messages":     e.meter.Messages(),
		"users":        int64(e.profiles.Len()),
		"knn_entries":  int64(e.knn.Len()),
	}
	if e.sched != nil {
		AddSchedStats(m, e.sched.Stats())
	}
	return m
}

// AddSchedStats merges scheduler counters into a stats map (shared with
// the cluster front-end, which aggregates over partitions first).
func AddSchedStats(m map[string]any, s sched.Stats) {
	m["sched_issued"] = s.Issued
	m["sched_dispatched"] = s.Dispatched
	m["sched_acked"] = s.Acked
	m["sched_abandoned"] = s.Abandoned
	m["sched_expired"] = s.Expired
	m["sched_reissued"] = s.Reissued
	m["sched_fallback_runs"] = s.FallbackRuns
	m["sched_fallback_errors"] = s.FallbackErrors
	m["sched_pending"] = int64(s.Pending)
	m["sched_leased"] = int64(s.Leased)
	m["sched_fallback_queued"] = int64(s.FallbackQueued)
	m["sched_unrefreshed"] = int64(s.Unrefreshed)
}

// Job assembles the personalization job for u: profile update has already
// happened via Rate; this runs the Sampler and packages the candidate
// profiles (Arrow 2 of Figure 1). With the scheduler enabled the job is
// stamped with a fresh lease (superseding any outstanding one for u).
//
// Job, NextJob and TryNextJob are the struct compatibility API: each is
// the decode of the bytes appendJob assembles, so the structs and every
// serving path's payload cannot drift. They are not metered — nothing
// crossed a wire.
func (e *Engine) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.jobStruct(e.acquire(u))
}

// acquire leases a user-driven job for u (a lease with no ID when the
// scheduler is off).
func (e *Engine) acquire(u core.UserID) sched.Lease {
	if e.sched == nil {
		return sched.Lease{User: u}
	}
	return e.sched.Acquire(u)
}

// jobStruct assembles the job lease l stands for into a pooled buffer
// and decodes it; the returned job owns its memory.
//
// Serializing and parsing sit between the job's epoch pin and the return.
// A rotation in that stretch would hand the caller a job already one
// epoch old — half its fold-in allowance (ApplyResult takes the current
// and the previous epoch) spent before the caller has run anything — so
// such a job is assembled again, once, under the same lease.
func (e *Engine) jobStruct(l sched.Lease) (*wire.Job, error) {
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	for first := true; ; first = false {
		bufs.JSON = e.appendJob(l, bufs.JSON[:0])
		job, err := wire.DecodeJob(bufs.JSON)
		if err != nil {
			return nil, fmt.Errorf("server: job for %v: %w", l.User, err)
		}
		if first && e.anon != nil && e.anon.Epoch() != job.Epoch {
			continue
		}
		return job, nil
	}
}

// assembleScratch is the pooled per-assembly working set: candidate
// slots, dedup state and random-draw buffer.
// Everything is reclaimed in one releaseScratch call at the end of the
// assembly, so steady-state job assembly allocates none of it.
type assembleScratch struct {
	candSlots []uint32
	seen      idSet
	randBuf   []uint32
	// ids is a neighbourhood on its way into the KNN table, which copies
	// it into slot indices: the fold-in paths (ApplyResult,
	// refreshLocally) build it here.
	ids []core.UserID
	// Refresh-path working set (refreshLocally): candidate profiles, the
	// selected neighborhood, Algorithm 2's popularity tally, a rec buffer
	// and a re-armable top-k collector. Together with the Into variants of
	// the core kernels these make a steady-state refresh allocate only the
	// two table rows it retains.
	profs  []core.Profile
	hood   []core.Neighbor
	pop    map[core.ItemID]int
	recbuf []core.ItemID
	col    *topk.Collector
}

var scratchPool = sync.Pool{New: func() any {
	return &assembleScratch{
		pop: make(map[core.ItemID]int, 64),
		col: topk.New(8),
	}
}}

func getScratch() *assembleScratch { return scratchPool.Get().(*assembleScratch) }

func releaseScratch(sc *assembleScratch) {
	sc.candSlots = sc.candSlots[:0]
	sc.randBuf = sc.randBuf[:0]
	sc.ids = sc.ids[:0]
	// Zero the profile slots so a pooled scratch does not pin arbitrary
	// profile snapshots (and their packed forms) in memory between uses.
	for i := range sc.profs {
		sc.profs[i] = core.Profile{}
	}
	sc.profs = sc.profs[:0]
	sc.hood = sc.hood[:0]
	sc.recbuf = sc.recbuf[:0]
	scratchPool.Put(sc)
}

// sampleCandidates runs the configured sampler into sc.candSlots, the
// candidates' slots. own is u's slot index (noSlot when the engine never
// referenced u). The engine's own default sampler walks the slot table
// directly; any other sampler's candidates get their slots here, minted
// on first reference.
func (e *Engine) sampleCandidates(sc *assembleScratch, u core.UserID, own uint32) {
	if _, ok := e.sampler.(*defaultSampler); ok {
		e.sampleInto(sc, u, own, e.cfg.K)
		return
	}
	for _, c := range e.sampler.Sample(u, e.cfg.K) {
		sc.candSlots = append(sc.candSlots, e.slots.mint(c))
	}
}

// NextJob implements the pull-based worker dispatch: it blocks until a
// stale user is available (stalest first) or ctx is done, then assembles
// and leases that user's job. It returns (nil, nil) when the scheduler
// is disabled or no work arrived before ctx expired — the transport
// layer answers 204 No Content.
func (e *Engine) NextJob(ctx context.Context) (*wire.Job, error) {
	if e.sched == nil {
		return nil, nil
	}
	if l, ok := e.sched.Next(ctx); ok {
		return e.jobStruct(l)
	}
	return nil, nil
}

// TryNextJob is the non-blocking form of NextJob.
func (e *Engine) TryNextJob() (*wire.Job, error) {
	if e.sched == nil {
		return nil, nil
	}
	if l, ok := e.sched.TryNext(); ok {
		return e.jobStruct(l)
	}
	return nil, nil
}

// AppendNextJob is NextJob in payload form (Backend), the path every
// worker transport serves from. It blocks like NextJob, then appends the
// leased job's format-3 body to dst, meters it and returns the lease ID
// so the transport can abandon a job it failed to hand off. lease is 0,
// with dst returned as it came, when the scheduler is disabled or no work
// arrived before ctx expired. err is always nil; Backend's signature
// leaves room for backends that route.
func (e *Engine) AppendNextJob(ctx context.Context, dst []byte) (body []byte, lease uint64, err error) {
	if e.sched == nil {
		return dst, 0, nil
	}
	if l, ok := e.sched.Next(ctx); ok {
		return e.appendPayload(l, dst), l.ID, nil
	}
	return dst, 0, nil
}

// TryAppendNextJob is the non-blocking form of AppendNextJob (the
// cluster front-end polls partitions through it).
func (e *Engine) TryAppendNextJob(dst []byte) (body []byte, lease uint64, err error) {
	if e.sched == nil {
		return dst, 0, nil
	}
	if l, ok := e.sched.TryNext(); ok {
		return e.appendPayload(l, dst), l.ID, nil
	}
	return dst, 0, nil
}

// Ack resolves a lease without a result: done=true completes it,
// done=false abandons it for immediate re-issue. ErrUnknownLease is
// returned when the lease is not outstanding (or the scheduler is
// disabled). Like the rest of the paper's protocol the endpoint is
// unauthenticated, so a forged done-ack can at worst delay one user's
// refresh until their next rating; results (the path that writes KNN
// rows) verify the lease-user binding in ApplyResult.
func (e *Engine) Ack(ctx context.Context, lease uint64, done bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.sched == nil || !e.sched.Ack(lease, done) {
		return fmt.Errorf("%w: %d", ErrUnknownLease, lease)
	}
	return nil
}

// refreshLocally is the fallback executor: one full personalization job
// run entirely server-side — sample candidates, select the K nearest
// with the same core KNN + top-k kernels the widget uses, fold the row
// in, retain recommendations. No anonymisation round-trip is needed
// because nothing leaves the server.
func (e *Engine) refreshLocally(ctx context.Context, u core.UserID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	own := e.slots.find(u)
	p := core.NewProfile(u)
	if own != noSlot {
		p = profileOf(e.slots.at(own), u)
	}
	sc := getScratch()
	defer releaseScratch(sc)
	e.sampleCandidates(sc, u, own)
	e.recordCandidates(len(sc.candSlots))
	profs := slices.Grow(sc.profs[:0], len(sc.candSlots))
	for _, i := range sc.candSlots {
		profs = append(profs, e.candidateProfile(e.slots.at(i)))
	}
	sc.profs = profs
	metric := e.cfg.FallbackMetric
	if metric == nil {
		metric = core.Cosine{}
	}
	sc.hood = core.SelectKNNInto(p, profs, e.cfg.K, metric, sc.col, sc.hood)
	// The KNN row and the recommendation row below are the only
	// allocations a steady-state refresh performs — everything else,
	// the neighbour IDs included, lives in sc.
	ids := sc.ids[:0]
	for _, n := range sc.hood {
		if n.User != u {
			ids = append(ids, n.User)
		}
	}
	sc.ids = ids
	e.knn.Put(u, ids)
	sc.recbuf = core.RecommendInto(p, profs, e.cfg.R, sc.col, sc.pop, sc.recbuf)
	if len(sc.recbuf) > 0 {
		recs := make([]core.ItemID, len(sc.recbuf))
		copy(recs, sc.recbuf)
		e.recs.Put(u, recs)
	}
	return nil
}

// anonView pins the anonymiser's current epoch for the duration of one job
// assembly (identity mapping when anonymisation is disabled).
func (e *Engine) anonView() core.Aliaser {
	if e.anon == nil {
		return core.IdentityAliaser{}
	}
	return e.anon.View()
}

// candidateProfile loads slot s's latest profile — registered here, or
// through the profile resolver for users owned elsewhere — and applies
// the outbound transforms (truncation, then the privacy filter) in the
// order a deployment would.
func (e *Engine) candidateProfile(s *slot) core.Profile {
	cp, ok := s.profile()
	if !ok && e.resolveProfile != nil {
		cp, ok = e.resolveProfile(s.user)
	}
	if !ok {
		cp = core.NewProfile(s.user)
	}
	if e.cfg.MaxProfileItems > 0 && cp.Size() > e.cfg.MaxProfileItems {
		cp = cp.Truncate(e.cfg.MaxProfileItems)
	}
	if e.cfg.CandidateFilter != nil {
		cp = e.cfg.CandidateFilter(cp)
	}
	return cp
}

// AppendJob appends u's personalization job, in job format 3, to dst
// (which may be nil) and meters it: the Backend method behind /v1/job,
// /online and the framed TJobGet. With a pooled, pre-grown buffer
// (wire.GetPayloadBufs) a steady-state call allocates approximately
// nothing: candidate assembly works out of a pooled scratch, and the
// candidate and own profile legs come from the serialized-profile cache.
func (e *Engine) AppendJob(_ context.Context, u core.UserID, dst []byte) ([]byte, error) {
	return e.appendPayload(e.acquire(u), dst), nil
}

// AppendJobJSON is AppendJob under the name it had when jobs were JSON.
// It stays for the per-layer benchmark pass, which calls it, until that
// pass's rows are renamed.
func (e *Engine) AppendJobJSON(ctx context.Context, u core.UserID, dst []byte) ([]byte, error) {
	return e.AppendJob(ctx, u, dst)
}

// AppendJobPayload is the Table-1 /online payload: AppendJob's body,
// extending dst, and its whole-buffer gzip, extending gzDst.
func (e *Engine) AppendJobPayload(ctx context.Context, u core.UserID, dst, gzDst []byte) (body, gz []byte, err error) {
	body, _ = e.AppendJob(ctx, u, dst)
	if gz, err = wire.AppendGzip(gzDst, body[len(dst):]); err != nil {
		return nil, nil, fmt.Errorf("server: compress job for %v: %w", u, err)
	}
	return body, gz, nil
}

// appendPayload is the serving path behind every transport: the job
// lease l stands for, appended to dst and metered.
func (e *Engine) appendPayload(l sched.Lease, dst []byte) []byte {
	body := e.appendJob(l, dst)
	e.meter.CountJob(len(body) - len(dst))
	return body
}

// appendJob assembles and serializes the job of l.User — the one
// candidate loop every job-fetch path runs — stamped with lease l (one
// with no ID stamps zeros). Taking the lease as an input puts every
// lease before its profile snapshot: a rating that lands after the
// snapshot then finds the user leased and sets dirty-again, so its
// refresh is re-queued when this job completes instead of being
// silently absorbed.
func (e *Engine) appendJob(l sched.Lease, dst []byte) []byte {
	u := l.User
	ownIdx := e.slots.mint(u)
	// First contact registers the user with an empty profile so she can
	// appear in other users' random samples.
	e.slots.register(ownIdx)
	own := e.slots.at(ownIdx)
	p := profileOf(own, u)
	sc := getScratch()
	defer releaseScratch(sc)
	e.sampleCandidates(sc, u, ownIdx)
	e.recordCandidates(len(sc.candSlots))

	// One pinned view per job: every pseudonym in the message belongs to
	// the epoch the job is stamped with, even if RotateAnonymizer runs
	// concurrently.
	view := e.anonView()
	job := wire.Job{
		UID:   uint32(view.AliasUser(u)),
		Epoch: view.Epoch(),
		K:     e.cfg.K,
		R:     e.cfg.R,
	}
	if l.ID != 0 {
		job.Lease = l.ID
		job.LeaseDeadlineMS = l.Deadline.UnixMilli()
		job.Attempt = l.Attempt
	}

	// With the cache enabled, profile legs come from the cache and
	// encoding is a concatenation of memoised byte slices. A candidate
	// filter forces the uncached path: filtered profiles may differ
	// between jobs, so memoising their encodings would be incorrect. The
	// requesting user's own leg is cacheable too, but only while no
	// truncation is configured: Truncate bumps the profile version, so a
	// truncated candidate leg and a full own leg could otherwise collide
	// under one (user, version) key.
	useCache := !e.cfg.DisableProfileCache && e.cfg.CandidateFilter == nil
	leg := func(dst []byte, c *wire.FragmentCell, p core.Profile, cache bool) []byte {
		if cache {
			return append(dst, c.Fragment(p, view)...)
		}
		return wire.AppendProfileMsg(dst, wire.ProfileToMsg(p, view))
	}
	dst = wire.AppendJobHead(dst, &job)
	dst = leg(dst, &own.frag, p, useCache && e.cfg.MaxProfileItems <= 0)
	// Format 3 puts the candidate count before the candidates.
	dst = binary.AppendUvarint(dst, uint64(len(sc.candSlots)))
	for _, i := range sc.candSlots {
		s := e.slots.at(i)
		dst = leg(dst, &s.frag, e.candidateProfile(s), useCache)
	}
	return dst
}

// ApplyResult folds a widget's KNN selection back into the KNN table
// (Arrow 3 of Figure 1), translating pseudonyms minted under the result's
// epoch. Recommendations are translated, retained for Recommendations,
// and returned so the caller (HTTP layer or replay harness) can expose
// them. The KNN row is replaced, the bandwidth meter is credited, and
// the scheduler's refresh cycle for the user is retired.
func (e *Engine) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := getScratch()
	defer releaseScratch(sc)
	u, recs, err := e.resolveResult(res, sc)
	if err != nil {
		return nil, err
	}
	if !e.profiles.Known(u) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, u)
	}
	e.knn.Put(u, sc.ids)
	if len(recs) > 0 {
		e.recs.Put(u, recs)
	}
	e.meter.CountResult(wire.ResultLen(res))
	if e.sched != nil {
		// The fold-in is the implicit ack — with the lease's user binding
		// verified, so a result quoting some other user's lease ID cannot
		// retire that user's cycle. A result whose own lease has been
		// superseded or already expired is still a valid refresh of the
		// row, so the cycle completes either way.
		if res.Lease == 0 || !e.sched.AckUser(res.Lease, u, true) {
			e.sched.Refreshed(u)
		}
	}
	return recs, nil
}

// resolveResult translates res's pseudonyms against this engine's
// anonymiser and enforces the protocol's shape. The client is untrusted
// (Section 6: "HyRec limits the impact of untrusted and malicious
// nodes"): it can only corrupt its own row, but that row feeds other
// users' candidate sets, so duplicates and self-references are dropped
// and the lists are capped at K neighbors and R recommendations. The
// neighbourhood goes to sc.ids (a duplicate check is a scan of at most K
// entries); the recommendations, which the caller keeps, are returned. It
// does not touch the tables.
func (e *Engine) resolveResult(res *wire.Result, sc *assembleScratch) (u core.UserID, recs []core.ItemID, err error) {
	u, ok := e.ResolveUser(core.UserID(res.UID), res.Epoch)
	if !ok {
		return 0, nil, fmt.Errorf("%w: uid alias %d epoch %d", ErrStaleEpoch, res.UID, res.Epoch)
	}
	hood := sc.ids[:0]
	for _, alias := range res.Neighbors {
		if len(hood) >= e.cfg.K {
			break
		}
		v, ok := e.ResolveUser(core.UserID(alias), res.Epoch)
		if !ok {
			return 0, nil, fmt.Errorf("%w: neighbor alias %d epoch %d", ErrStaleEpoch, alias, res.Epoch)
		}
		if v != u && !slices.Contains(hood, v) {
			hood = append(hood, v)
		}
	}
	sc.ids = hood
	recAliases := res.Recommendations
	if len(recAliases) > e.cfg.R {
		recAliases = recAliases[:e.cfg.R]
	}
	recs = make([]core.ItemID, 0, len(recAliases))
	for _, alias := range recAliases {
		item, ok := e.resolveItem(core.ItemID(alias), res.Epoch)
		if !ok {
			return 0, nil, fmt.Errorf("%w: item alias %d epoch %d", ErrStaleEpoch, alias, res.Epoch)
		}
		recs = append(recs, item)
	}
	return u, recs, nil
}

// ResolveUser inverts a user pseudonym minted by this engine's anonymiser
// in the given epoch (identity when anonymisation is disabled). It reports
// ok=false when the epoch is too stale to translate. A cluster front-end
// uses this to route a widget result back to the partition whose
// anonymiser minted its aliases.
func (e *Engine) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	if e.anon == nil {
		return alias, true
	}
	return e.anon.ResolveUser(alias, epoch)
}

func (e *Engine) resolveItem(alias core.ItemID, epoch uint64) (core.ItemID, bool) {
	if e.anon == nil {
		return alias, true
	}
	return e.anon.ResolveItem(alias, epoch)
}

func (e *Engine) recordCandidates(n int) {
	e.candSum.Add(int64(n))
	e.candCount.Add(1)
}

// CandidateSetStats returns the mean candidate-set size and the number of
// jobs issued since the last reset — the quantity Figure 5 tracks over
// time.
func (e *Engine) CandidateSetStats() (mean float64, jobs int64) {
	jobs = e.candCount.Load()
	if jobs == 0 {
		return 0, 0
	}
	return float64(e.candSum.Load()) / float64(jobs), jobs
}

// ResetCandidateStats clears the candidate-set accounting window.
func (e *Engine) ResetCandidateStats() {
	e.candSum.Store(0)
	e.candCount.Store(0)
}

// RandomUsers draws up to n distinct users uniformly from the engine's
// roster under its seeded RNG, excluding `exclude`. Samplers use it for
// the k-random-users component of the §3.1 rule; a cluster peer sampler
// uses it to draw exchange candidates from sibling partitions. The RNG
// is sharded by `exclude` (the requesting user), so concurrent job
// assemblies for different users draw without contending on one lock.
func (e *Engine) RandomUsers(n int, exclude core.UserID) []core.UserID {
	s := &e.rngs[shardOf(exclude)]
	s.mu.Lock()
	idx, _ := e.slots.draw(make([]uint32, 0, max(n, 0)), s.rng, n, exclude)
	s.mu.Unlock()
	if len(idx) == 0 {
		return nil
	}
	return e.slots.users(idx)
}

// NewDefaultSampler returns the §3.1 candidate rule (one-hop ∪ two-hop ∪
// k random users) bound to e — the sampler an engine starts with. Exposed
// so wrappers (e.g. the cluster's cross-partition exchange sampler) can
// decorate the default behaviour instead of reimplementing it.
func NewDefaultSampler(e *Engine) Sampler { return &defaultSampler{engine: e} }

// defaultSampler implements Section 3.1's rule over the slot table (see
// Engine.sampleInto).
type defaultSampler struct {
	engine *Engine
}

var _ Sampler = (*defaultSampler)(nil)

func (s *defaultSampler) Sample(u core.UserID, k int) []core.UserID {
	e := s.engine
	sc := getScratch()
	defer releaseScratch(sc)
	e.sampleInto(sc, u, e.slots.find(u), k)
	return e.slots.users(sc.candSlots)
}

// sampleInto runs the §3.1 rule (core.BuildCandidateSet's order: one-hop
// neighbours, then two-hop, then k random users, deduplicated, u
// excluded) over the slot table into sc.candSlots. Rows hold slot
// indices and a slot is one user's, so the walk reaches and dedups every
// candidate by index: no map lookup, and no read of a slot it skips.
// own is u's slot index, noSlot when the engine never referenced u.
func (e *Engine) sampleInto(sc *assembleScratch, u core.UserID, own uint32, k int) {
	e.skipSeedDraw(u)
	sc.candSlots = sc.candSlots[:0]
	if k <= 0 {
		return
	}
	sc.seen.reset()
	add := func(i uint32) {
		if sc.seen.add(i) {
			sc.candSlots = append(sc.candSlots, i)
		}
	}
	if own != noSlot {
		sc.seen.add(own)
		if row := e.slots.at(own).row.Load(); row != nil {
			for _, i := range row.slots {
				add(i)
			}
			for _, i := range row.slots {
				if hop := e.slots.at(i).row.Load(); hop != nil {
					for _, j := range hop.slots {
						add(j)
					}
				}
			}
		}
	}
	sh := &e.rngs[shardOf(u)]
	sh.mu.Lock()
	sc.randBuf, _ = e.slots.draw(sc.randBuf[:0], sh.rng, k, u)
	sh.mu.Unlock()
	for _, i := range sc.randBuf {
		add(i)
	}
}

// skipSeedDraw advances u's rng shard by one draw per job and discards
// it. Nothing needs the value; the step is part of the sampling stream
// every seeded experiment, golden payload and benchmark run of this
// repository was recorded on, and dropping it would re-deal all of them.
func (e *Engine) skipSeedDraw(u core.UserID) {
	sh := &e.rngs[shardOf(u)]
	sh.mu.Lock()
	sh.rng.Int63()
	sh.mu.Unlock()
}
