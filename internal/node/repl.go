package node

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/client"
	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// defaultReplBacklog is the per-partition dirty-set cap when
// Config.ReplBacklog is zero.
const defaultReplBacklog = 8192

// replicator is the per-node replication pump. Every partition this
// node serves as primary feeds its replica two ways. Ratings ride the
// ordered delta stream (apply/flush): applied and queued in one step,
// shipped as ratings before the ack returns, applied by the mirror
// strictly in sequence. The unit of shipping is the link — this node to
// one mirror node: every partition with ratings queued for that mirror
// rides one shipment, one segment each, and a link has at most one
// un-acked shipment, so each partition has at most one un-acked delta
// segment and its segments leave in seq order. Everything else rides
// whole-state segments, one per shipment (ship: ExportUsers here, a
// verbatim install behind the mirror's per-user recency gate): the async
// tail for worker results and fallback refreshes (flushAll, every
// ReplicateEvery), and the one repair form — a stream its mirror cannot
// continue is repaired by re-shipping the partition whole (resyncLocked),
// which re-bases the mirror's stream position. Anti-entropy
// (fullSyncAll) bounds divergence with plain snapshots of everything.
type replicator struct {
	n *Node

	mu    sync.Mutex
	parts map[int]*replPart
	// backlogCap bounds each partition's dirty set (0 = unlimited): a
	// long-dead mirror must not grow the backlog without bound. When a
	// partition trips the cap its dirty set collapses into one needFull
	// flag — "re-ship everything" is constant-size state, and the full
	// export covers whatever the dropped set recorded.
	backlogCap int
	// dirtyTotal / backlogHW track the current and high-water total
	// dirty users across partitions (the replica_backlog_users gauge).
	dirtyTotal int64
	backlogHW  int64

	// shipMu holds one lock per ring partition for the node's life (a
	// partition dropped mid-ship still orders against the ship in
	// flight). It makes a state change and its stream stamp one step:
	// RateBatch's apply + queue, a whole-state export + its stamp. A
	// snapshot stamped S thus holds every delta <= S; a rating it misses
	// ships in one > S.
	shipMu []sync.Mutex
	// links holds one send slot per mirror address, made on first use
	// and kept for the node's life (the membership is static). A slot is
	// held across the round trip of a link's delta shipment or of a whole
	// re-ship of one of its partitions: neither overtakes the other on
	// the way to the mirror.
	links map[string]*sync.Mutex

	// repl_delta_ratings_total / repl_full_ships_total / repl_gaps_total.
	deltaRatings, fullShips, gaps atomic.Int64
}

type replPart struct {
	dirty map[core.UserID]struct{}
	// needFull: the partition must be re-shipped whole — its backlog
	// tripped the cap, its mirror answered gap, or its replica changed.
	// While set, new dirt and new deltas are skipped: the flag is cleared
	// before the re-ship's export reads state, so the export covers them.
	needFull bool

	// The delta stream: seq is the last sequence number allocated, acked
	// the highest the mirror acknowledged, pend the ratings applied
	// locally and not yet shipped. queued / taken count ratings ever
	// appended to / drained from pend; an op's ticket is queued right
	// after its append, settled once taken reaches it.
	seq, acked    uint64
	pend          []wire.RatingMsg
	queued, taken uint64
	// rebased is the stamp of the last whole re-ship that was delivered.
	rebased uint64
}

func newReplicator(n *Node) *replicator {
	cap := n.cfg.ReplBacklog
	if cap == 0 {
		cap = defaultReplBacklog
	}
	if cap < 0 {
		cap = 0 // explicit "unlimited"
	}
	return &replicator{n: n, parts: map[int]*replPart{}, shipMu: make([]sync.Mutex, n.cfg.Partitions), links: map[string]*sync.Mutex{}, backlogCap: cap}
}

// ticket is an op's claim on partition p's delta stream: settled once
// the stream's taken count reaches n.
type ticket struct {
	p int
	n uint64
}

// link returns the send slot of the link to the mirror at addr.
func (r *replicator) link(addr string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.links[addr]
	if !ok {
		l = new(sync.Mutex)
		r.links[addr] = l
	}
	return l
}

// seqCountBits is the width of the counting part of a stream's sequence
// numbers; the bits above it hold the stream's start in milliseconds.
const seqCountBits = 20

// ensure starts tracking partition p (idempotent). The stream's sequence
// numbers start above any that a previous incarnation of this primary
// can have reached (counting outruns the clock only past a million
// shipments a millisecond), so a mirror that outlived a restart sees a
// gap and is re-shipped, instead of taking the new stream's first
// shipments for duplicates of the old one's.
func (r *replicator) ensure(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.parts[p]; !ok {
		base := uint64(time.Now().UnixMilli()) << seqCountBits
		r.parts[p] = &replPart{dirty: map[core.UserID]struct{}{}, seq: base, acked: base}
	}
}

// drop stops tracking partition p (this node is no longer its primary).
func (r *replicator) drop(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		r.dirtyTotal -= int64(len(st.dirty))
	}
	delete(r.parts, p)
}

// addDirtyLocked records u in st's dirty set under r.mu, enforcing the
// backlog cap: past it, the set collapses into st.needFull and further
// dirt is skipped until the full re-ship runs.
func (r *replicator) addDirtyLocked(st *replPart, u core.UserID) {
	if st.needFull {
		return
	}
	if _, ok := st.dirty[u]; ok {
		return
	}
	if r.backlogCap > 0 && len(st.dirty) >= r.backlogCap {
		r.armFullLocked(st)
		return
	}
	st.dirty[u] = struct{}{}
	r.dirtyTotal++
	if r.dirtyTotal > r.backlogHW {
		r.backlogHW = r.dirtyTotal
	}
}

// armFullLocked flags st for a whole re-ship, which subsumes its dirty
// set.
func (r *replicator) armFullLocked(st *replPart) {
	st.needFull = true
	r.dirtyTotal -= int64(len(st.dirty))
	st.dirty = map[core.UserID]struct{}{}
}

// markDirty queues u for the async tail. A no-op for partitions this
// node does not track (it is not their primary).
func (r *replicator) markDirty(p int, u core.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		r.addDirtyLocked(st, u)
	}
}

// requeue puts users back in p's dirty set after a failed ship —
// subject to the same backlog cap as fresh dirt, so repeated ship
// failures against a dead mirror degrade into the needFull flag
// instead of an ever-growing set.
func (r *replicator) requeue(p int, users []core.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok {
		return
	}
	for _, u := range users {
		r.addDirtyLocked(st, u)
	}
}

// takeDirty drains and returns p's dirty set.
func (r *replicator) takeDirty(p int) []core.UserID {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok || len(st.dirty) == 0 {
		return nil
	}
	users := make([]core.UserID, 0, len(st.dirty))
	for u := range st.dirty {
		users = append(users, u)
	}
	r.dirtyTotal -= int64(len(st.dirty))
	st.dirty = map[core.UserID]struct{}{}
	return users
}

// needsFull reports whether p is flagged for a whole re-ship.
func (r *replicator) needsFull(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	return ok && st.needFull
}

// setNeedFull arms p's whole re-ship (its replica changed under the map).
func (r *replicator) setNeedFull(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		r.armFullLocked(st)
	}
}

// backlogHighWater is the replica_backlog_users gauge: the most dirty
// users ever pending at once across partitions.
func (r *replicator) backlogHighWater() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backlogHW
}

// stamp is the stream position a whole-state export of p reflects: the
// last delta seq allocated. Stamps do not consume sequence numbers.
func (r *replicator) stamp(p int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		return st.seq
	}
	return 0
}

// partitions snapshots the tracked partition set in stable order.
func (r *replicator) partitions() []int {
	r.mu.Lock()
	out := make([]int, 0, len(r.parts))
	for p := range r.parts {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Ints(out)
	return out
}

// lag reports the replica_lag_users gauge — users whose latest state has
// not yet been acknowledged by their partition's replica — and the
// replica_lag_seq gauge: delta segments allocated but not acknowledged,
// summed over primary partitions.
func (r *replicator) lag() (users, seqs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.parts {
		users += int64(len(st.dirty))
		seqs += int64(st.seq - st.acked)
	}
	return users, seqs
}

// replicaAddr resolves the replica destination for p under the current
// map. ok is false when the partition has no distinct replica (a
// single-node deployment, or mid-failover before a new map is in force).
func (r *replicator) replicaAddr(p int) (string, bool) {
	rep := r.n.nm.Load().Replica(p)
	if rep == nil || rep.ID == r.n.self.ID {
		return "", false
	}
	return rep.Addr, true
}

// apply records rs on p's engine and queues them on p's delta stream in
// one step, so the stream carries ratings in the order the primary
// applied them. The run is applied whole even if ctx is cancelled
// meanwhile: a prefix applied and not queued would reach the mirror on
// no stream. flush settles the returned ticket on the link to addr; a
// zero ticket means nothing to ship — no distinct replica, or a pending
// re-ship that will export this. ok=false means nothing was applied:
// this node stopped being p's primary after the caller read the map, and
// p's handoff export may already have run (see handoff).
func (r *replicator) apply(ctx context.Context, p int, rs []core.Rating) (t ticket, addr string, ok bool) {
	lk := &r.shipMu[p]
	lk.Lock()
	defer lk.Unlock()
	if primaryIn(r.n.nm.Load(), p) != r.n.self.ID {
		return ticket{}, "", false
	}
	_ = r.n.cl.Engine(p).RateBatch(context.WithoutCancel(ctx), rs) // fails only on a cancelled context
	addr, ok = r.replicaAddr(p)
	if !ok {
		return ticket{}, "", true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok || st.needFull {
		return ticket{}, "", true
	}
	st.pend = slices.Grow(st.pend, len(rs))
	for _, rt := range rs {
		st.pend = append(st.pend, wire.RatingMsg{UID: uint32(rt.User), Item: uint32(rt.Item), Liked: rt.Liked})
	}
	st.queued += uint64(len(rs))
	return ticket{p: p, n: st.queued}, addr, true
}

// flush is the semi-synchronous leg of RateBatch for one link: it
// returns once the ratings behind every ticket in want have been through
// a shipment to addr. Whoever holds the link's send slot ships every
// partition queued for that mirror in one shipment; the ops queued
// behind it find their tickets settled and return without a round trip
// of their own. Each segment is settled on its own ack. Nothing here
// fails the client write: an unreachable mirror hands the shipment's
// users to the async tail; a gapped segment — the mirror answered, so it
// is there to be repaired — is answered with its partition's whole
// re-ship right here, under the slot, before this op or any queued
// behind it acks. A re-ship that fails, or did not help (the first delta
// after it gaps again: the destination is no mirror, this node's map is
// stale), stays armed for the tail's pace instead of costing every op a
// partition export.
func (r *replicator) flush(ctx context.Context, addr string, want []ticket) {
	ctx = context.WithoutCancel(ctx) // the shipment carries other ops' ratings too
	l := r.link(addr)
	l.Lock()
	defer l.Unlock()
	for {
		segs := r.takeDeltas(addr, want)
		if segs == nil {
			return
		}
		acks, err := r.n.peer(addr).Replicate(ctx, segs)
		var repair []int
		r.mu.Lock()
		for i := range segs {
			b := &segs[i]
			st, ok := r.parts[b.Partition]
			if !ok {
				continue
			}
			switch {
			case err != nil:
				for _, rt := range b.Ratings {
					r.addDirtyLocked(st, core.UserID(rt.UID))
				}
			case acks[i].Gap:
				r.gaps.Add(1)
				r.armFullLocked(st)
				if b.Seq != st.rebased+1 {
					repair = append(repair, b.Partition)
				}
			default:
				st.acked = max(st.acked, b.Seq)
				r.deltaRatings.Add(int64(len(b.Ratings)))
			}
			if st.pend == nil {
				st.pend = b.Ratings[:0] // shipped and encoded: the buffer is free again
			}
		}
		r.mu.Unlock()
		for _, p := range repair {
			rctx, cancel := context.WithTimeout(ctx, r.n.cfg.PeerTimeout)
			r.resyncLocked(rctx, p, addr)
			cancel()
		}
	}
}

// takeDeltas drains pending ratings into the next shipment to addr: one
// segment per partition whose replica is addr, the partitions of want's
// unsettled tickets first (so they advance in every shipment), then any
// other partition with ratings queued for that mirror. The segments carry at
// most MaxReplRatings ratings in all; a partition cut short continues in
// the next shipment, at its next seq. nil once every ticket in want is
// settled. A wanted partition with no replica, with a whole re-ship
// pending (its export will cover them) or whose replica has left this
// link (the map change that moved it arms that re-ship) has its pending
// ratings dropped instead.
func (r *replicator) takeDeltas(addr string, want []ticket) []wire.ReplBatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch, budget := r.n.nm.Load().Epoch, wire.MaxReplRatings
	var segs []wire.ReplBatch
	take := func(p int) {
		st, ok := r.parts[p]
		if !ok || len(st.pend) == 0 || st.needFull || budget == 0 {
			return
		}
		if rep, _ := r.replicaAddr(p); rep != addr {
			return
		}
		n := min(len(st.pend), budget)
		budget -= n
		st.seq++
		if segs == nil {
			segs = make([]wire.ReplBatch, 0, len(r.parts))
		}
		segs = append(segs, wire.ReplBatch{Epoch: epoch, Partition: p, Seq: st.seq, Ratings: st.pend[:n:n]})
		if st.pend = st.pend[n:]; len(st.pend) == 0 {
			st.pend = nil // the shipment owns the whole buffer until flush hands it back
		}
		st.taken += uint64(n)
	}
	for _, t := range want {
		st, ok := r.parts[t.p]
		if !ok || st.taken >= t.n {
			continue
		}
		if rep, _ := r.replicaAddr(t.p); rep != addr || st.needFull {
			st.taken, st.pend = st.queued, nil
			continue
		}
		take(t.p) // an unsettled ticket's partition has ratings pending
	}
	if segs == nil {
		return nil
	}
	for p := range r.parts {
		take(p)
	}
	return segs
}

// ship exports the listed users from p's engine and streams them to
// dstAddr in MaxReplUsers-sized batches, each a one-segment shipment.
// Unknown users are skipped by ExportUsers; an error leaves delivery
// incomplete and the caller decides whether to requeue. dropped lists
// the users of every batch the destination did not install whole: a
// delta that touched one of them overtook the snapshot on the way and
// the mirror's gate turned it down.
func (r *replicator) ship(ctx context.Context, p int, users []core.UserID, full bool, dstAddr string) (dropped []core.UserID, err error) {
	batches := r.exportBatches(p, users, full)
	if full && len(batches) > 0 {
		r.fullShips.Add(1)
	}
	return r.send(ctx, r.n.peer(dstAddr), batches)
}

// send delivers exported batches to peer, each a one-segment shipment
// (see ship for dropped).
func (r *replicator) send(ctx context.Context, peer *client.Client, batches []wire.ReplBatch) (dropped []core.UserID, err error) {
	for i := range batches {
		b := &batches[i]
		acks, err := peer.Replicate(ctx, batches[i:i+1])
		if err != nil {
			return dropped, err
		}
		if acks[0].Applied < len(b.Users) {
			for _, ru := range b.Users {
				dropped = append(dropped, core.UserID(ru.UID))
			}
		}
	}
	return dropped, nil
}

// exportBatches snapshots the users' engine state and stamps every chunk
// with p's stream position under the ship lock (see replicator.shipMu).
// That stamp is what lets the mirror's per-user gate order snapshots
// against deltas whatever the network interleaves: a snapshot older than
// the last delta that touched its user is dropped, never installed over
// an acknowledged rating.
func (r *replicator) exportBatches(p int, users []core.UserID, full bool) []wire.ReplBatch {
	mu := &r.shipMu[p]
	mu.Lock()
	defer mu.Unlock()
	states := r.n.cl.Engine(p).ExportUsers(users)
	if len(states) == 0 {
		return nil
	}
	epoch, seq := r.n.nm.Load().Epoch, r.stamp(p)
	batches := make([]wire.ReplBatch, 0, (len(states)+wire.MaxReplUsers-1)/wire.MaxReplUsers)
	for start := 0; start < len(states); start += wire.MaxReplUsers {
		end := min(start+wire.MaxReplUsers, len(states))
		b := wire.ReplBatch{
			Epoch:     epoch,
			Partition: p,
			Seq:       seq,
			Full:      full,
			Users:     make([]wire.ReplUser, 0, end-start),
		}
		for _, st := range states[start:end] {
			b.Users = append(b.Users, replUserFromState(st))
		}
		batches = append(batches, b)
	}
	return batches
}

// resyncLocked re-ships p's whole state to its replica as Full batches.
// The caller holds the send slot of the link to addr, so no delta of p
// interleaves: the mirror re-bases its stream position on the chunks'
// stamp and the next delta continues from there. needFull is cleared before the export and
// re-armed if the delivery fails.
func (r *replicator) resyncLocked(ctx context.Context, p int, addr string) {
	r.mu.Lock()
	st, ok := r.parts[p]
	if !ok {
		r.mu.Unlock()
		return
	}
	seq := st.seq
	st.needFull = false
	r.mu.Unlock()
	_, err := r.ship(ctx, p, r.n.cl.Engine(p).Profiles().Users(), true, addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		st.acked, st.rebased = max(st.acked, seq), seq
	} else {
		r.armFullLocked(st)
	}
}

// flushAll is the async tail: every partition's dirty set goes to its
// replica whole-state (failures requeue for the next tick), or, flagged
// needFull, the whole partition does. A partition with no distinct
// replica is skipped before anything is drained: its dirt and its
// pending re-ship wait for the map that gives it one.
func (r *replicator) flushAll(ctx context.Context) {
	for _, p := range r.partitions() {
		addr, ok := r.replicaAddr(p)
		if !ok {
			continue
		}
		if r.resyncIfArmed(ctx, p, addr) {
			continue
		}
		users := r.takeDirty(p)
		if len(users) == 0 {
			continue
		}
		// What the gate dropped is exported again next tick, at a newer
		// stamp: a dirty user's KNN row and recs are on no delta.
		dropped, err := r.ship(ctx, p, users, false, addr)
		if err != nil {
			dropped = users
		}
		r.requeue(p, dropped)
	}
}

// resyncIfArmed discharges p's pending whole re-ship, if it has one,
// taking the send slot of the link to addr for as long as the re-ship
// lasts.
func (r *replicator) resyncIfArmed(ctx context.Context, p int, addr string) bool {
	if !r.needsFull(p) {
		return false
	}
	l := r.link(addr)
	l.Lock()
	defer l.Unlock()
	if r.needsFull(p) { // not discharged while this waited for the slot
		r.resyncLocked(ctx, p, addr)
	}
	return true
}

// fullSyncAll is the anti-entropy pass: every primary partition's whole
// state goes to its replica. A stream in sequence needs no re-basing, so
// the pass ships it as ordinary snapshots — ordered against the deltas
// by the per-user gate alone, off the link's send slot, never holding up
// an ack — and errors are dropped: the next pass repeats the full state
// anyway. Only a partition flagged needFull is re-shipped Full.
func (r *replicator) fullSyncAll(ctx context.Context) {
	for _, p := range r.partitions() {
		addr, ok := r.replicaAddr(p)
		if !ok || r.resyncIfArmed(ctx, p, addr) {
			continue
		}
		_, _ = r.ship(ctx, p, r.n.cl.Engine(p).Profiles().Users(), false, addr)
	}
}

// handoff ships p's full state to its new primary under map m — the
// demotion leg of a rebalance (a node joining takes its partitions).
// Best-effort: a delivery that fails is not retried.
func (r *replicator) handoff(p int, m *wire.NodeMap) {
	pr := m.Primary(p)
	if pr == nil || pr.ID == r.n.self.ID {
		return
	}
	// The caller published m first, so this export holds every rating
	// this node acknowledged for p: apply refuses p from here on.
	batches := r.exportBatches(p, r.n.cl.Engine(p).Profiles().Users(), true)
	if len(batches) == 0 {
		return
	}
	r.fullShips.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
	defer cancel()
	// The new primary may not hold m yet (the coordinator pushes it to
	// one peer at a time), and a node refuses state for a partition its
	// own map does not give it: hand it m first. The push follows the
	// export, so nothing the new primary ships back under m can leak
	// into the handed-off state.
	peer := r.n.peer(pr.Addr)
	_ = peer.PushNodeMap(ctx, m)
	_, _ = r.send(ctx, peer, batches)
}

// loop drives the async tail and the anti-entropy pass until stop.
func (r *replicator) loop(wg *sync.WaitGroup, stop <-chan struct{}) {
	defer wg.Done()
	if r.n.cfg.ReplicateEvery <= 0 {
		<-stop
		return
	}
	tail := time.NewTicker(r.n.cfg.ReplicateEvery)
	defer tail.Stop()
	var antiC <-chan time.Time
	if r.n.cfg.AntiEntropyEvery > 0 {
		anti := time.NewTicker(r.n.cfg.AntiEntropyEvery)
		defer anti.Stop()
		antiC = anti.C
	}
	for {
		select {
		case <-stop:
			// Final drain so a clean shutdown leaves no dirty tail
			// (skipped when killed: SIGKILL gets no goodbye flush).
			if !r.n.killed.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
				r.flushAll(ctx)
				cancel()
			}
			return
		case <-tail.C:
			ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
			r.flushAll(ctx)
			cancel()
		case <-antiC:
			ctx, cancel := context.WithTimeout(context.Background(), 2*r.n.cfg.PeerTimeout)
			r.fullSyncAll(ctx)
			cancel()
		}
	}
}
