// Package sched is the asynchronous job lifecycle of the HyRec
// orchestrator (Section 3): it decouples "this user's KNN row is stale"
// from "a browser happens to be asking right now".
//
// The paper's flow is synchronous — a client request pulls a
// personalization job, the widget computes, the result is folded back in.
// That alone cannot keep personalization fresh when browsers are slow,
// churn out mid-job, or never return (the Section 2.3/2.4 churn
// discussion, reproduced in internal/churn): a job handed to a vanished
// browser is simply lost. This package adds the missing lifecycle:
//
//   - every issued job carries a lease (ID, deadline, attempt number);
//   - a staleness-priority queue decides which user's refresh is
//     dispatched next to pull-based workers (stalest first);
//   - leases that expire (stragglers) are re-issued with a bounded retry
//     budget;
//   - leases that exhaust the budget — and users nobody computes for at
//     all — are absorbed by a configurable server-side fallback worker
//     pool that executes the job locally, so neighborhoods converge even
//     under arbitrary churn.
//
// The fallback pool is the residual server compute of the Section 5.4
// cost argument: it must stay small for offloading to pay off, so its
// concurrency is capped by a Budget that a multi-partition cluster
// shares across all its schedulers.
//
// The scheduler is storage-agnostic: it tracks user states and lease
// lifetimes, and delegates actual job execution to an Executor callback
// (the engine's local KNN + top-k path). All methods are safe for
// concurrent use.
package sched

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"hyrec/internal/core"
)

// DefaultLeaseTTL is the lease duration when Config.LeaseTTL is zero.
const DefaultLeaseTTL = 30 * time.Second

// DefaultMaxRetries is the re-issue budget when Config.MaxRetries is
// zero (pass a negative value for "no re-issues").
const DefaultMaxRetries = 2

// Config parametrises a Scheduler.
type Config struct {
	// LeaseTTL is how long a worker holds an issued job before the lease
	// expires and the job is re-issued. Zero selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxRetries bounds how many times an expired or abandoned lease is
	// re-issued before the job falls back to server-side execution. Zero
	// selects DefaultMaxRetries; negative means no re-issues.
	MaxRetries int
	// FallbackWorkers is the size of the server-side local execution
	// pool. Zero disables local execution: exhausted jobs re-enter the
	// queue with a reset retry budget instead.
	FallbackWorkers int
	// Budget, when non-nil, bounds concurrent fallback executions across
	// schedulers (a cluster shares one). Nil means each worker runs
	// unthrottled.
	Budget *Budget
	// FallbackAfter sends a job straight to the fallback pool when it
	// has sat undispatched for this long — the "inactive user" path: the
	// user is not visiting and no worker is pulling, so the server must
	// compute locally or the row never converges. Zero selects 4×LeaseTTL
	// when the pool is enabled; negative disables the path.
	FallbackAfter time.Duration
	// SweepEvery is the lease-expiry scan period. Zero selects
	// LeaseTTL/4, clamped to [5ms, 1s].
	SweepEvery time.Duration
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultMaxRetries
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.FallbackAfter == 0 && c.FallbackWorkers > 0 {
		c.FallbackAfter = 4 * c.LeaseTTL
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTTL / 4
		if c.SweepEvery < 5*time.Millisecond {
			c.SweepEvery = 5 * time.Millisecond
		}
		if c.SweepEvery > time.Second {
			c.SweepEvery = time.Second
		}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Executor runs one personalization job entirely server-side — the
// engine's local KNN-selection + recommendation path. It must be safe
// for concurrent use.
type Executor func(ctx context.Context, u core.UserID) error

// Lease is the handle attached to every issued job.
type Lease struct {
	// ID identifies the lease; the widget echoes it on its result (or on
	// an explicit ack).
	ID uint64
	// User is the real user the job refreshes.
	User core.UserID
	// Deadline is when the lease expires and the job becomes re-issuable.
	Deadline time.Time
	// Attempt counts issues of this refresh cycle (1 = first issue).
	Attempt int
}

// Stats are the scheduler's lifetime counters plus current gauges.
type Stats struct {
	// Issued counts user-driven leases (Acquire).
	Issued int64
	// Dispatched counts worker-pulled leases (Next/TryNext).
	Dispatched int64
	// Acked counts leases completed by a fold-in or an explicit done-ack.
	Acked int64
	// Abandoned counts explicit done=false acks.
	Abandoned int64
	// Expired counts leases whose deadline passed unacked (stragglers).
	Expired int64
	// Reissued counts jobs put back in the queue after expiry/abandon.
	Reissued int64
	// FallbackRuns counts server-side local executions.
	FallbackRuns int64
	// FallbackErrors counts local executions that failed.
	FallbackErrors int64
	// Pending, Leased and FallbackQueued are current gauges.
	Pending, Leased, FallbackQueued int
	// Unrefreshed gauges how many tracked users never had a fold-in —
	// the quantity a fleet watches to call a deployment converged.
	Unrefreshed int
}

// Add accumulates o into s — the aggregation a multi-scheduler front-end
// (the cluster) performs over its partitions. Kept next to the struct so
// a new counter cannot be forgotten in the roll-up.
func (s *Stats) Add(o Stats) {
	s.Issued += o.Issued
	s.Dispatched += o.Dispatched
	s.Acked += o.Acked
	s.Abandoned += o.Abandoned
	s.Expired += o.Expired
	s.Reissued += o.Reissued
	s.FallbackRuns += o.FallbackRuns
	s.FallbackErrors += o.FallbackErrors
	s.Pending += o.Pending
	s.Leased += o.Leased
	s.FallbackQueued += o.FallbackQueued
	s.Unrefreshed += o.Unrefreshed
}

// user lifecycle states.
type state uint8

const (
	stateFresh    state = iota // row refreshed, nothing owed
	statePending               // stale, waiting for dispatch
	stateLeased                // a job for this user is out under a lease
	stateFallback              // queued for / running on the fallback pool
)

// userState is one tracked user's record. It is held for every user the
// scheduler ever saw, so it carries no pointer and no time.Time: times
// are nanoseconds since the scheduler's base (Scheduler.at), which keeps
// the record in the 32-byte size class.
type userState struct {
	dirtySince int64 // start of the current refresh cycle
	leaseID    uint64
	user       core.UserID
	heapIdx    int32 // position in the pending heap, -1 when absent
	retries    int32 // re-issues consumed this cycle
	st         state
	dirtyAgain bool // staleness arrived while leased / in fallback
	refreshed  bool // at least one fold-in ever happened
}

// leaseRec is one outstanding lease; deadline is on the same scale as
// userState.dirtySince.
type leaseRec struct {
	deadline int64
	user     core.UserID
}

// Scheduler tracks per-user freshness and the lease lifecycle. Construct
// with New; Close stops the sweeper and fallback pool.
type Scheduler struct {
	cfg  Config
	exec Executor
	// base is the clock reading at construction; the scheduler's own
	// records keep times as nanoseconds since it (see at).
	base time.Time

	mu      sync.Mutex
	users   map[core.UserID]*userState
	pending pendingHeap
	leases  map[uint64]leaseRec
	expiry  []uint64 // lease IDs in issue order (deadlines nondecreasing)
	nextID  uint64
	idStep  uint64
	readyCh chan struct{} // closed+replaced to wake Next waiters
	onReady func()        // external work-available hook (see OnReady)
	stats   Stats
	// unrefreshed counts tracked users with refreshed == false, kept
	// incrementally so Stats() does not scan s.users under the lock on
	// every scrape.
	unrefreshed int
	// standby parks the dispatch side: MarkStale keeps accumulating the
	// pending backlog, but Next/TryNext issue nothing and the sweeper
	// neither promotes over-age users to the fallback pool nor lets
	// re-issues reach it. A replica partition runs its scheduler in
	// standby so leases stay primary-only; promotion (SetStandby(false))
	// releases the accumulated backlog at once.
	standby bool

	fallbackQ  []core.UserID
	fbCond     *sync.Cond
	fbInflight int

	stopCtx  context.Context
	stopFn   context.CancelFunc
	stopped  bool
	closeOne sync.Once
	wg       sync.WaitGroup
}

// New builds and starts a scheduler. exec may be nil only when
// cfg.FallbackWorkers is zero.
func New(cfg Config, exec Executor) *Scheduler {
	cfg = cfg.withDefaults()
	if cfg.FallbackWorkers > 0 && exec == nil {
		panic("sched: fallback workers configured with nil executor")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		exec:    exec,
		base:    cfg.Clock(),
		users:   make(map[core.UserID]*userState),
		leases:  make(map[uint64]leaseRec),
		nextID:  1,
		idStep:  1,
		readyCh: make(chan struct{}),
		stopCtx: ctx,
		stopFn:  cancel,
	}
	s.fbCond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.sweepLoop()
	for i := 0; i < cfg.FallbackWorkers; i++ {
		s.wg.Add(1)
		go s.fallbackLoop()
	}
	return s
}

// SetIDSpace partitions the lease-ID space: this scheduler mints IDs
// start, start+step, start+2·step, … so sibling schedulers (cluster
// partitions) never collide and a front-end can route an ack by
// (id-1) mod step. Must be called before any lease is issued.
func (s *Scheduler) SetIDSpace(start, step uint64) {
	if start == 0 || step == 0 {
		panic("sched: lease ID space must have start and step >= 1")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.leases) > 0 || s.nextID != 1 && s.nextID != start {
		panic("sched: SetIDSpace after leases were issued")
	}
	s.nextID, s.idStep = start, step
}

// OnReady installs a hook invoked (under the scheduler's lock — it must
// not block) whenever a user enters the pending queue. A multi-scheduler
// front-end (the cluster) funnels every partition's hook into one
// buffered channel so its dispatch loop can sleep instead of polling.
// Must be set before traffic.
func (s *Scheduler) OnReady(fn func()) {
	s.mu.Lock()
	s.onReady = fn
	s.mu.Unlock()
}

// SetStandby parks or releases the dispatch side (see the standby field).
// Entering standby does not recall leases already out — the caller drains
// those via Evict; leaving standby wakes Next waiters and fires the
// OnReady hook when a backlog is waiting.
func (s *Scheduler) SetStandby(standby bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.standby == standby {
		return
	}
	s.standby = standby
	if !standby && s.pending.Len() > 0 {
		close(s.readyCh)
		s.readyCh = make(chan struct{})
		if s.onReady != nil {
			s.onReady()
		}
	}
}

// Standby reports whether the dispatch side is parked.
func (s *Scheduler) Standby() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.standby
}

// Close stops the sweeper and the fallback pool, waiting for in-flight
// fallback executions to finish. Safe to call multiple times.
func (s *Scheduler) Close() {
	s.closeOne.Do(func() {
		s.stopFn()
		s.mu.Lock()
		s.stopped = true
		s.fbCond.Broadcast()
		s.mu.Unlock()
		s.wg.Wait()
	})
}

// MarkStale records that u's KNN row is out of date (a rating arrived).
// The user enters the staleness queue; if a job for u is already out,
// the re-dirty is remembered and u re-enters the queue when that job
// completes.
func (s *Scheduler) MarkStale(u core.UserID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.userLocked(u)
	switch st.st {
	case stateFresh:
		st.dirtySince = s.now()
		st.retries = 0
		s.toPendingLocked(st)
	case statePending:
		// already queued; the original dirtySince keeps its priority
	case stateLeased, stateFallback:
		st.dirtyAgain = true
	}
}

// Acquire issues a lease for a user-driven job: the engine is assembling
// a job for u right now (the synchronous pull path), so the scheduler
// records the outstanding work. A previously outstanding lease for u is
// superseded.
func (s *Scheduler) Acquire(u core.UserID) Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.userLocked(u)
	if st.st == stateFresh {
		st.dirtySince = s.now()
		st.retries = 0
	}
	s.stats.Issued++
	return s.leaseLocked(st)
}

// Next blocks until a stale user is available for dispatch (stalest
// first) or ctx is done, returning ok=false in the latter case.
func (s *Scheduler) Next(ctx context.Context) (Lease, bool) {
	for {
		s.mu.Lock()
		if !s.standby && s.pending.Len() > 0 {
			st := heap.Pop(&s.pending).(*userState)
			s.stats.Dispatched++
			l := s.leaseLocked(st)
			s.mu.Unlock()
			return l, true
		}
		ready := s.readyCh
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Lease{}, false
		case <-s.stopCtx.Done():
			return Lease{}, false
		case <-ready:
		}
	}
}

// TryNext is the non-blocking form of Next.
func (s *Scheduler) TryNext() (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.standby || s.pending.Len() == 0 {
		return Lease{}, false
	}
	st := heap.Pop(&s.pending).(*userState)
	s.stats.Dispatched++
	return s.leaseLocked(st), true
}

// Ack resolves lease id: done=true marks the job complete (the result
// was folded in), done=false abandons it for immediate re-issue. It
// reports false when the lease is unknown — already completed,
// superseded, expired past its retry budget, or never issued.
func (s *Scheduler) Ack(id uint64, done bool) bool {
	return s.ack(id, 0, false, done)
}

// AckUser is Ack with the lease's user binding verified: it reports
// false — with no side effects — unless lease id is outstanding for
// exactly u. Fold-in paths use it so a result carrying some other
// user's (sequential, guessable) lease ID cannot retire that user's
// refresh cycle.
func (s *Scheduler) AckUser(id uint64, u core.UserID, done bool) bool {
	return s.ack(id, u, true, done)
}

func (s *Scheduler) ack(id uint64, u core.UserID, checkUser, done bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[id]
	if !ok || (checkUser && rec.user != u) {
		return false
	}
	delete(s.leases, id)
	st := s.users[rec.user]
	st.leaseID = 0
	if done {
		s.stats.Acked++
		s.completeLocked(st)
	} else {
		s.stats.Abandoned++
		s.reissueLocked(st)
	}
	return true
}

// Refreshed records a fold-in for u that did not carry a lease (the
// legacy synchronous path): any outstanding lease is retired and u
// becomes fresh.
func (s *Scheduler) Refreshed(u core.UserID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.userLocked(u)
	if st.leaseID != 0 {
		delete(s.leases, st.leaseID)
		st.leaseID = 0
	}
	s.completeLocked(st)
}

// Evict withdraws u from the scheduler's lifecycle: any outstanding
// lease is dropped (a later ack for it reports unknown), the pending
// and fallback queues forget the user, and the refresh cycle is
// cancelled. It reports whether u still owed a refresh — pending,
// leased, queued for fallback, or re-dirtied mid-flight — so a
// handoff can re-mark the user stale where she is served now. The user's record is retained (an in-flight
// fallback execution may still consult it); a fresh record costs a few
// dozen bytes and is rebuilt on the next MarkStale anyway.
func (s *Scheduler) Evict(u core.UserID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.users[u]
	if !ok {
		return false
	}
	owed := st.st != stateFresh || st.dirtyAgain
	if st.leaseID != 0 {
		delete(s.leases, st.leaseID)
		st.leaseID = 0
	}
	if st.heapIdx >= 0 {
		heap.Remove(&s.pending, int(st.heapIdx))
	}
	for i, q := range s.fallbackQ {
		if q == u {
			s.fallbackQ = append(s.fallbackQ[:i], s.fallbackQ[i+1:]...)
			break
		}
	}
	st.st = stateFresh
	st.dirtyAgain = false
	st.retries = 0
	return owed
}

// SweepNow expires overdue leases and promotes over-age pending users to
// the fallback pool immediately (the sweeper goroutine does the same on
// a timer; tests call this directly).
func (s *Scheduler) SweepNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	// Leases are appended in deadline order, so expiry scans a prefix.
	for len(s.expiry) > 0 {
		id := s.expiry[0]
		rec, live := s.leases[id]
		if live && rec.deadline > now {
			break
		}
		s.expiry = s.expiry[1:]
		if !live {
			continue // acked or superseded earlier
		}
		delete(s.leases, id)
		st := s.users[rec.user]
		st.leaseID = 0
		s.stats.Expired++
		s.reissueLocked(st)
	}
	if len(s.expiry) == 0 {
		s.expiry = nil // release the drained array
	}
	// Inactive users: pending entries nobody dispatched within
	// FallbackAfter go to the fallback pool so they converge anyway.
	if s.cfg.FallbackAfter > 0 && s.cfg.FallbackWorkers > 0 && !s.standby {
		for s.pending.Len() > 0 {
			st := s.pending[0]
			if time.Duration(now-st.dirtySince) < s.cfg.FallbackAfter {
				break
			}
			heap.Pop(&s.pending)
			s.toFallbackLocked(st)
		}
	}
}

// Stats returns a snapshot of the lifetime counters and current gauges.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Pending = s.pending.Len()
	out.Leased = len(s.leases)
	out.FallbackQueued = len(s.fallbackQ) + s.fbInflight
	out.Unrefreshed = s.unrefreshed
	return out
}

// Quiet reports whether no work is pending, leased, or in the fallback
// pipeline — every tracked user is fresh.
func (s *Scheduler) Quiet() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending.Len() == 0 && len(s.leases) == 0 &&
		len(s.fallbackQ) == 0 && s.fbInflight == 0
}

// RefreshedUser reports whether at least one fold-in ever completed
// for u.
func (s *Scheduler) RefreshedUser(u core.UserID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.users[u]
	return ok && st.refreshed
}

// Unrefreshed returns the tracked users that have never had a fold-in —
// the convergence check of the churny-worker stress scenario.
func (s *Scheduler) Unrefreshed() []core.UserID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []core.UserID
	for u, st := range s.users {
		if !st.refreshed {
			out = append(out, u)
		}
	}
	return out
}

// ---- internals (all *Locked helpers require s.mu held) ----

// at converts a clock reading to the scale of the scheduler's records.
func (s *Scheduler) at(t time.Time) int64 { return int64(t.Sub(s.base)) }

// now reads the clock on the scale of the scheduler's records.
func (s *Scheduler) now() int64 { return s.at(s.cfg.Clock()) }

func (s *Scheduler) userLocked(u core.UserID) *userState {
	st, ok := s.users[u]
	if !ok {
		st = &userState{user: u, heapIdx: -1}
		s.users[u] = st
		s.unrefreshed++
	}
	return st
}

// markRefreshedLocked flips st.refreshed exactly once, keeping the
// incremental unrefreshed gauge in step.
func (s *Scheduler) markRefreshedLocked(st *userState) {
	if !st.refreshed {
		st.refreshed = true
		s.unrefreshed--
	}
}

func (s *Scheduler) leaseLocked(st *userState) Lease {
	if st.leaseID != 0 {
		delete(s.leases, st.leaseID) // supersede the outstanding lease
	}
	if st.heapIdx >= 0 {
		heap.Remove(&s.pending, int(st.heapIdx))
	}
	id := s.nextID
	s.nextID += s.idStep
	deadline := s.cfg.Clock().Add(s.cfg.LeaseTTL)
	s.leases[id] = leaseRec{user: st.user, deadline: s.at(deadline)}
	s.expiry = append(s.expiry, id)
	st.st = stateLeased
	st.leaseID = id
	return Lease{ID: id, User: st.user, Deadline: deadline, Attempt: int(st.retries) + 1}
}

func (s *Scheduler) completeLocked(st *userState) {
	if st.heapIdx >= 0 {
		// Defensive: a completing user must not linger in the pending
		// heap, or it would be popped later as a spurious dispatch.
		heap.Remove(&s.pending, int(st.heapIdx))
	}
	s.markRefreshedLocked(st)
	st.retries = 0
	if st.dirtyAgain {
		st.dirtyAgain = false
		st.dirtySince = s.now()
		s.toPendingLocked(st)
		return
	}
	st.st = stateFresh
}

// reissueLocked re-queues a user whose lease expired or was abandoned,
// or hands it to the fallback pool once the retry budget is exhausted.
func (s *Scheduler) reissueLocked(st *userState) {
	st.retries++
	if int(st.retries) > s.cfg.MaxRetries && s.cfg.FallbackWorkers > 0 && !s.standby {
		s.toFallbackLocked(st)
		return
	}
	if int(st.retries) > s.cfg.MaxRetries {
		// No fallback pool: keep the job cycling rather than losing it.
		st.retries = 0
	}
	s.stats.Reissued++
	s.toPendingLocked(st)
}

func (s *Scheduler) toPendingLocked(st *userState) {
	st.st = statePending
	if st.heapIdx < 0 {
		heap.Push(&s.pending, st)
	}
	// Wake every Next waiter; they re-check the heap under the lock.
	close(s.readyCh)
	s.readyCh = make(chan struct{})
	if s.onReady != nil {
		s.onReady()
	}
}

func (s *Scheduler) toFallbackLocked(st *userState) {
	if st.st == stateFallback {
		return // already queued (or running) on the pool
	}
	st.st = stateFallback
	s.fallbackQ = append(s.fallbackQ, st.user)
	s.fbCond.Signal()
}

func (s *Scheduler) sweepLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.SweepNow()
		case <-s.stopCtx.Done():
			return
		}
	}
}

func (s *Scheduler) fallbackLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.fallbackQ) == 0 && !s.stopped {
			s.fbCond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		u := s.fallbackQ[0]
		s.fallbackQ = s.fallbackQ[1:]
		if st := s.users[u]; st.st != stateFallback {
			// The user left the fallback state while queued — refreshed by
			// a late result, or re-leased by a user-driven request. Skip:
			// that path owns the lifecycle now.
			s.mu.Unlock()
			continue
		}
		s.fbInflight++
		s.mu.Unlock()

		var err error
		if s.cfg.Budget.Acquire(s.stopCtx) {
			err = s.exec(s.stopCtx, u)
			s.cfg.Budget.Release()
		} else {
			err = s.stopCtx.Err() // shutting down
		}

		s.mu.Lock()
		s.fbInflight--
		st := s.users[u]
		s.stats.FallbackRuns++
		switch {
		case st.st != stateFallback:
			// A user-driven Acquire superseded us mid-execution; that
			// lease owns the lifecycle now. On success the row was still
			// genuinely refreshed — record that, touch nothing else.
			if err == nil {
				s.markRefreshedLocked(st)
			} else {
				s.stats.FallbackErrors++
			}
		case err != nil:
			s.stats.FallbackErrors++
			// Local execution failed; put the user back in the queue with
			// a reset budget rather than dropping the refresh.
			st.retries = 0
			s.toPendingLocked(st)
		default:
			s.completeLocked(st)
		}
		s.mu.Unlock()
	}
}

// pendingHeap orders stale users by dirtySince (stalest first).
type pendingHeap []*userState

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	return h[i].dirtySince < h[j].dirtySince
}
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = int32(i), int32(j)
}
func (h *pendingHeap) Push(x any) {
	st := x.(*userState)
	st.heapIdx = int32(len(*h))
	*h = append(*h, st)
}
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	old[n-1] = nil
	st.heapIdx = -1
	*h = old[:n-1]
	return st
}
