package node

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/client"
	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/sched"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// Config parametrises one node process.
type Config struct {
	// Self is this node's identity; it must appear in Members.
	Self Member
	// Members is the deployment's static membership (including Self).
	// Nodes that are down at boot are still listed — heartbeats demote
	// them and the coordinator reassigns their partitions.
	Members []Member
	// Partitions is the ring size every member must agree on.
	Partitions int
	// Engine configures the embedded cluster (seed, K, R, scheduler…);
	// every member must share it so engines, pseudonym spaces and lease
	// lanes are identical across processes.
	Engine server.Config

	// ReplicateEvery paces the async replication tail (default 100ms).
	ReplicateEvery time.Duration
	// ReplBacklog caps each partition's replication dirty set — the
	// users queued for the async tail while a mirror is unreachable.
	// Past the cap the set is dropped and the partition is flagged for
	// one full-state re-ship instead, so a long-dead mirror costs
	// constant memory. 0 = default (8192); negative = unlimited.
	ReplBacklog int
	// AntiEntropyEvery paces per-partition full-state syncs (default 30s;
	// negative disables).
	AntiEntropyEvery time.Duration
	// HeartbeatEvery paces peer liveness probes (default 1s; negative
	// disables the heartbeat/failover loop — tests drive it manually).
	HeartbeatEvery time.Duration
	// DeadAfter is how many consecutive missed heartbeats declare a peer
	// dead (default 3).
	DeadAfter int
	// PeerTimeout bounds every node-to-node request (default 5s).
	PeerTimeout time.Duration
	// PeerSecret, when non-empty, is sent on every node-to-node request
	// and required of inbound node-plane traffic (the HTTP front-end
	// enforces it — see server.NodeSecretHeader). Every member must share
	// it.
	PeerSecret string
}

func (c Config) withDefaults() Config {
	if c.ReplicateEvery == 0 {
		c.ReplicateEvery = 100 * time.Millisecond
	}
	if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 30 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	return c
}

// Node is one process of a multi-node HyRec deployment: a full
// hyrec.Service over the entire ring, serving owned partitions locally
// and proxying the rest to their primaries. See the package comment for
// the architecture.
type Node struct {
	cfg     Config
	self    Member
	members []Member // sorted by ID
	cl      *cluster.Cluster

	// nm is the node map currently in force (never nil after New).
	nm atomic.Pointer[wire.NodeMap]

	// mapMu serializes map transitions (applyMap), not map reads.
	mapMu sync.Mutex

	peerMu sync.Mutex
	peers  map[string]*client.Client // addr → node-plane client

	repl *replicator

	// mirrors is the mirror-side ingest state, one per ring partition.
	mirrors []mirrorPart

	hb *heartbeats

	failovers atomic.Int64

	stopCh   chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
	killed   atomic.Bool
}

// New builds a node and applies the boot node map: epoch 1 over the full
// member set, computed identically by every member, so a cleanly-booted
// deployment agrees on ownership before any heartbeat exchange. Call
// Start to launch the replication and failover loops.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("node: partitions must be >= 1, got %d", cfg.Partitions)
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("node: empty membership")
	}
	members := append([]Member(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	found := false
	for _, m := range members {
		if m.ID == cfg.Self.ID {
			found = true
			if m.Addr != cfg.Self.Addr {
				return nil, fmt.Errorf("node: self addr %q disagrees with membership %q", cfg.Self.Addr, m.Addr)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("node: self %q not in membership", cfg.Self.ID)
	}
	n := &Node{
		cfg:     cfg,
		self:    cfg.Self,
		members: members,
		cl:      cluster.New(cfg.Engine, cfg.Partitions),
		peers:   make(map[string]*client.Client),
		mirrors: make([]mirrorPart, cfg.Partitions),
		stopCh:  make(chan struct{}),
	}
	for i := range n.mirrors {
		n.mirrors[i].seen = map[core.UserID]replVer{}
	}
	n.repl = newReplicator(n)
	n.hb = newHeartbeats(n)
	boot := BuildMap(members, cfg.Partitions, 1)
	n.applyMap(boot)
	return n, nil
}

// Start launches the background loops (replication tail, anti-entropy,
// heartbeats). Idempotent enough for tests to skip it entirely.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.repl.loop(&n.wg, n.stopCh)
	if n.cfg.HeartbeatEvery > 0 {
		n.wg.Add(1)
		go n.hb.loop(&n.wg, n.stopCh)
	}
}

// Close stops the loops — draining the replication tail — and the
// embedded cluster.
func (n *Node) Close() error {
	n.closeOne.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.peerMu.Lock()
	for _, p := range n.peers {
		p.Close()
	}
	n.peers = map[string]*client.Client{}
	n.peerMu.Unlock()
	return n.cl.Close()
}

// Kill is the SIGKILL stand-in for tests: stop without the replication
// drain or partition handoff a clean Close performs. Acknowledged state
// must survive through the replica alone.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.closeOne.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.peerMu.Lock()
	for _, p := range n.peers {
		p.Close()
	}
	n.peers = map[string]*client.Client{}
	n.peerMu.Unlock()
	_ = n.cl.Close()
}

// Cluster exposes the embedded cluster (tests and the persist saver).
func (n *Node) Cluster() *cluster.Cluster { return n.cl }

// Map returns the node map currently in force.
func (n *Node) Map() *wire.NodeMap { return n.nm.Load() }

// NodeEpoch implements server.NodeEpocher: /healthz advertises the
// map epoch in force, turning heartbeats into an epoch exchange.
func (n *Node) NodeEpoch() uint64 { return n.nm.Load().Epoch }

// Self returns this node's identity.
func (n *Node) Self() Member { return n.self }

// peer returns (building if needed) the node-plane client for addr. The
// forwarded marker is set on every request it issues, so the receiving
// node answers not_primary instead of proxying a second hop.
func (n *Node) peer(addr string) *client.Client {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if p, ok := n.peers[addr]; ok {
		return p
	}
	opts := []client.Option{
		client.WithHeader(server.ForwardedHeader, "1"),
		client.WithTimeout(n.cfg.PeerTimeout),
		client.WithRetries(1, 25*time.Millisecond),
	}
	if n.cfg.PeerSecret != "" {
		opts = append(opts, client.WithHeader(server.NodeSecretHeader, n.cfg.PeerSecret))
	}
	// When the static membership advertises a framed listener for this
	// peer, the replication shipments and proxy hops ride it (with the
	// JSON path as automatic fallback).
	for _, m := range n.cfg.Members {
		if m.Addr == addr && m.FrameAddr != "" {
			opts = append(opts, client.WithFramed(m.FrameAddr))
			break
		}
	}
	p := client.New(addr, opts...)
	n.peers[addr] = p
	return p
}

// ---- role resolution ----

// owner resolves the primary serving u's partition under the current
// map. local reports whether that primary is this node.
func (n *Node) owner(u core.UserID) (p int, primary *wire.NodeInfo, local bool) {
	p = n.cl.Partition(u)
	primary = n.nm.Load().Primary(p)
	local = primary != nil && primary.ID == n.self.ID
	return p, primary, local
}

// notPrimaryErr builds the typed rejection for partition p.
func (n *Node) notPrimaryErr(p int) error {
	e := &server.NotPrimaryError{Partition: p}
	if pr := n.nm.Load().Primary(p); pr != nil && pr.ID != n.self.ID {
		e.PrimaryID, e.PrimaryAddr = pr.ID, pr.Addr
	}
	return e
}

// ---- node map application ----

// ApplyNodeMap implements server.NodeMapSink: adopt a pushed map if its
// epoch is newer than the one in force.
func (n *Node) ApplyNodeMap(_ context.Context, m *wire.NodeMap) error {
	if m.Partitions != n.cfg.Partitions {
		return fmt.Errorf("node: pushed map has %d partitions, ring has %d", m.Partitions, n.cfg.Partitions)
	}
	n.applyMap(m)
	return nil
}

// applyMap puts m in force if it is newer, re-gating every partition's
// role: engines this node now serves as primary leave scheduler standby
// (their accumulated import backlog dispatches at once — the
// reconvergence queue); engines it no longer serves drain their leases
// via Evict, hand their state to the new primary, and re-enter standby.
func (n *Node) applyMap(m *wire.NodeMap) {
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	old := n.nm.Load()
	if old != nil && !supersedes(m, old) {
		return
	}
	newPrimary, _ := roles(m, n.self.ID)
	var oldPrimary map[int]bool
	if old != nil {
		oldPrimary, _ = roles(old, n.self.ID)
	}
	newNodes := map[string]bool{}
	for _, nd := range m.Nodes {
		newNodes[nd.ID] = true
	}

	// Publish the map before re-gating so proxy decisions and rejections
	// already reflect it.
	n.nm.Store(m)

	for p := 0; p < n.cfg.Partitions; p++ {
		e := n.cl.Engine(p)
		wasPrimary := old == nil || oldPrimary[p] // boot: engines start live
		isPrimary := newPrimary[p]
		switch {
		case isPrimary && !wasPrimary:
			// Promotion. When the old primary vanished from the map (died
			// or left) rather than handing off, this is a failover.
			if oldPrim := primaryIn(old, p); oldPrim != "" && !newNodes[oldPrim] {
				n.failovers.Add(1)
			}
			e.SetStandby(false)
			// Every mirrored user re-converges against the new
			// neighbourhood; imports already marked them stale, this
			// catches users imported before the scheduler existed in
			// standby or snapshot-restored ones.
			for _, u := range e.Profiles().Users() {
				e.MarkStale(u)
			}
			n.repl.ensure(p)
			n.repl.setNeedFull(p) // this node's stream starts here: seed its replica
		case !isPrimary && wasPrimary:
			// Demotion (node join rebalance, or boot on a non-owned
			// partition). Drain leases so no job for this partition stays
			// out under a lease this node can no longer complete, ship
			// state to the new primary, then park the dispatch side.
			if s := e.Scheduler(); s != nil {
				for _, u := range e.Profiles().Users() {
					s.Evict(u)
				}
			}
			e.SetStandby(true)
			if old != nil {
				n.repl.handoff(p, m)
			}
			n.repl.drop(p)
		case isPrimary:
			n.repl.ensure(p)
			if rep := replicaIn(m, p); old != nil && rep != "" && rep != replicaIn(old, p) {
				// A new mirror holds none of this stream: seed it with a
				// whole re-ship now rather than at the next anti-entropy.
				n.repl.setNeedFull(p)
			}
		default:
			e.SetStandby(true)
			n.repl.drop(p)
		}
	}
}

// supersedes reports whether map m must replace the map in force. A
// higher epoch always wins. At an equal epoch, two *different*
// coordinators have raced a publish (a partial partition where each saw
// its own alive majority); the lower coordinator ID wins the tie, so
// every node both publishers can reach converges on one map instead of
// keeping whichever push arrived first.
func supersedes(m, cur *wire.NodeMap) bool {
	if m.Epoch != cur.Epoch {
		return m.Epoch > cur.Epoch
	}
	return m.Coordinator != "" && cur.Coordinator != "" && m.Coordinator < cur.Coordinator
}

// primaryIn returns the ID of p's primary in m ("" when m is nil or
// unassigned).
func primaryIn(m *wire.NodeMap, p int) string {
	if m == nil {
		return ""
	}
	if pr := m.Primary(p); pr != nil {
		return pr.ID
	}
	return ""
}

// replicaIn is primaryIn for p's replica.
func replicaIn(m *wire.NodeMap, p int) string {
	if rep := m.Replica(p); rep != nil {
		return rep.ID
	}
	return ""
}

// ---- hyrec.Service ----

// Rate implements hyrec.Service.
func (n *Node) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	return n.RateBatch(ctx, []core.Rating{{User: u, Item: item, Liked: liked}})
}

// RateBatch implements hyrec.Service: locally-owned ratings are applied
// and queued on their partitions' delta streams, then every partition's
// shipment and every proxy hop (ratings for users owned elsewhere go to
// their primaries) run side by side — the ack waits for the slowest leg,
// not their sum. A rating acknowledged while its replica is reachable is
// on the mirror before the ack returns.
func (n *Node) RateBatch(ctx context.Context, ratings []core.Rating) error {
	// Group the batch by partition (a stable counting sort: one user's
	// ratings keep their order), then resolve each partition's owner once.
	m, parts := n.nm.Load(), n.cfg.Partitions
	part := make([]int, len(ratings))
	end := make([]int, parts+1) // end[p+1]: where partition p's group ends
	for i, r := range ratings {
		part[i] = n.cl.Partition(r.User)
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
	var local []int                      // partitions this node is primary of
	remote := map[string][]core.Rating{} // addr → ratings
	for p := 0; p < parts; p++ {
		rs := grouped[end[p]:end[p+1]]
		primary := m.Primary(p)
		switch {
		case len(rs) == 0:
		case primary != nil && primary.ID == n.self.ID:
			local = append(local, p)
		case server.IsForwarded(ctx) || primary == nil:
			return n.notPrimaryErr(p)
		default:
			remote[primary.Addr] = append(remote[primary.Addr], rs...)
		}
	}
	legs := make([]func() error, 0, len(local)+len(remote))
	for _, p := range local {
		ticket, err := n.repl.apply(ctx, p, grouped[end[p]:end[p+1]])
		if err != nil {
			return err
		}
		if ticket != 0 {
			legs = append(legs, func() error { n.repl.flush(ctx, p, ticket); return nil })
		}
	}
	for addr, batch := range remote {
		legs = append(legs, func() error { return n.peer(addr).RateBatch(ctx, batch) })
	}
	if len(legs) == 0 {
		return nil
	}
	errs := make(chan error, len(legs))
	for _, leg := range legs[1:] {
		go func() { errs <- leg() }()
	}
	err := legs[0]()
	for range legs[1:] {
		if e := <-errs; err == nil {
			err = e
		}
	}
	return err
}

// Job implements hyrec.Service.
func (n *Node) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Job(ctx, u)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Job(ctx, u)
}

// AppendJobPayload implements server.PayloadAppender. The local path is
// the embedded cluster's zero-allocation append; the proxy path fetches
// the owner's exact payload bytes (client.JobRaw), so a proxied payload
// is byte-identical to one served by the owner directly.
func (n *Node) AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.AppendJobPayload(ctx, u, jsonDst, gzDst)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, nil, n.notPrimaryErr(p)
	}
	raw, err := n.peer(primary.Addr).JobRaw(ctx, u)
	if err != nil {
		return nil, nil, err
	}
	jsonBody = append(jsonDst[:0], raw...)
	gzBody, err = wire.AppendGzip(gzDst[:0], jsonBody, n.cfg.Engine.GzipLevel)
	if err != nil {
		return nil, nil, err
	}
	return jsonBody, gzBody, nil
}

// AppendJobJSON implements server.JSONJobAppender: the framed plane's
// gzip-free twin of AppendJobPayload. The proxy path already carries
// raw JSON bytes (client.JobRaw), so neither leg compresses anything.
func (n *Node) AppendJobJSON(ctx context.Context, u core.UserID, jsonDst []byte) ([]byte, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.AppendJobJSON(ctx, u, jsonDst)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	raw, err := n.peer(primary.Addr).JobRaw(ctx, u)
	if err != nil {
		return nil, err
	}
	return append(jsonDst[:0], raw...), nil
}

// ApplyResult implements hyrec.Service. The partition is routed by the
// result's lease lane when present (every node mints identical lanes),
// falling back to pseudonym resolution — identical anonymiser seeds make
// an alias minted by the owner resolvable on any node that has not
// rotated past it. A result landing on the partition's replica is
// rejected typed (never silently folded into the mirror); other
// non-owners proxy to the primary.
func (n *Node) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	p := -1
	if res.Lease != 0 {
		p = n.cl.LanePartition(res.Lease)
	}
	if p < 0 {
		if u, ok := n.cl.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
			p = n.cl.Partition(u)
		}
	}
	if p < 0 {
		// Unroutable everywhere — surface the cluster's typed rejection.
		return n.cl.ApplyResult(ctx, res)
	}
	m := n.nm.Load()
	primary := m.Primary(p)
	if primary != nil && primary.ID == n.self.ID {
		recs, err := n.cl.ApplyResult(ctx, res)
		if err == nil {
			if u, ok := n.cl.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
				n.repl.markDirty(p, u)
			}
		}
		return recs, err
	}
	if replica := m.Replica(p); replica != nil && replica.ID == n.self.ID {
		// The mirror must not fold results in: its tables are a replica
		// of the primary's history, not a second authority.
		return nil, n.notPrimaryErr(p)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).ApplyResult(ctx, res)
}

// Ack implements server.LeaseAcker under the same role gate as
// ApplyResult: primaries ack locally, replicas reject typed, everyone
// else proxies.
func (n *Node) Ack(ctx context.Context, lease uint64, done bool) error {
	p := n.cl.LanePartition(lease)
	if p < 0 {
		return fmt.Errorf("%w: %d", server.ErrUnknownLease, lease)
	}
	m := n.nm.Load()
	primary := m.Primary(p)
	if primary != nil && primary.ID == n.self.ID {
		return n.cl.Ack(ctx, lease, done)
	}
	if replica := m.Replica(p); replica != nil && replica.ID == n.self.ID {
		return n.notPrimaryErr(p)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Ack(ctx, lease, done)
}

// NextJob implements server.JobSource: only locally-primary partitions
// dispatch (standby schedulers park their backlog), so a worker attached
// to this node computes only for users this node owns.
func (n *Node) NextJob(ctx context.Context) (*wire.Job, error) { return n.cl.NextJob(ctx) }

// AppendNextJob implements server.JobDispatcher: NextJob in payload form.
func (n *Node) AppendNextJob(ctx context.Context, jsonDst, gzDst []byte, wantGz bool) (jsonBody, gzBody []byte, lease uint64, err error) {
	return n.cl.AppendNextJob(ctx, jsonDst, gzDst, wantGz)
}

// Recommendations implements hyrec.Service.
func (n *Node) Recommendations(ctx context.Context, u core.UserID, k int) ([]core.ItemID, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Recommendations(ctx, u, k)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Recommendations(ctx, u, k)
}

// Neighbors implements hyrec.Service.
func (n *Node) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Neighbors(ctx, u)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Neighbors(ctx, u)
}

// ---- capability interfaces ----

// Replicate implements server.Replicator: ingest a primary's batch.
// Batches for partitions this node neither mirrors nor owns are
// rejected typed. A mirror takes the two shipment forms as follows:
//
//   - Rating deltas are the partition's ordered stream: seq pos+1 (or a
//     stream's first, on a mirror that has seen nothing — the low bits of
//     a seq count from 1, see ensure) is applied through the engine's
//     ordinary RateBatch and advances the position; a shipment at or
//     behind it — a retry, a deposed primary's straggler — is acked
//     without being re-applied; anything else answers Gap untouched, and
//     the primary re-ships the partition whole. Sequence numbers alone
//     say what continues the stream (they are unique to one primary's
//     incarnation), so a map change that leaves the pair in place moves
//     the epoch without breaking it.
//   - Whole-state records install verbatim, each only when the batch's
//     stamp is not older than the last shipment — delta or snapshot —
//     applied for that user, so the newest state wins in any arrival
//     order. A Full batch also re-bases the stream position on its stamp.
//
// A primary (the handoff tail of a rebalance, or a just-promoted replica
// catching a straggler) is no stream's mirror: it merges whole state
// destination-wins (ImportUsers), so opinions it accepted since taking
// over are never clobbered, and answers Gap to deltas.
func (n *Node) Replicate(ctx context.Context, b *wire.ReplBatch) (*wire.ReplAck, error) {
	if b.Partition >= n.cfg.Partitions {
		return nil, fmt.Errorf("node: repl batch for partition %d, ring has %d", b.Partition, n.cfg.Partitions)
	}
	m := n.nm.Load()
	selfPrimary := primaryIn(m, b.Partition) == n.self.ID
	if !selfPrimary && replicaIn(m, b.Partition) != n.self.ID {
		return nil, n.notPrimaryErr(b.Partition)
	}
	states := make([]server.UserState, 0, len(b.Users))
	for _, ru := range b.Users {
		st, err := replUserState(ru)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	e := n.cl.Engine(b.Partition)
	ack := &wire.ReplAck{Seq: b.Seq}
	if selfPrimary {
		e.ImportUsers(states)
		ack.Applied, ack.Gap = len(states), len(b.Ratings) > 0
		return ack, nil
	}
	mp := &n.mirrors[b.Partition]
	mp.mu.Lock()
	defer mp.mu.Unlock()
	v := replVer{epoch: b.Epoch, seq: b.Seq}
	if len(states) > 0 {
		fresh := mp.gateFresh(v, states)
		e.ImportUsersSnapshot(fresh)
		ack.Applied = len(fresh)
	}
	if b.Full && v.newer(mp.pos) {
		mp.pos = v
	}
	switch {
	case len(b.Ratings) == 0 || !v.newer(mp.pos):
	case v.seq == mp.pos.seq+1, v.seq&(1<<seqCountBits-1) == 1 && mp.pos == replVer{}:
		rs := make([]core.Rating, len(b.Ratings))
		for i, rt := range b.Ratings {
			rs[i] = core.Rating{User: core.UserID(rt.UID), Item: core.ItemID(rt.Item), Liked: rt.Liked}
			if i == 0 || rs[i].User != rs[i-1].User {
				mp.seen[rs[i].User] = v // an older snapshot of this user must not undo it
			}
		}
		// A shipment is applied whole, whatever happens to the connection
		// that carried it — and RateBatch fails only on a cancelled context.
		_ = e.RateBatch(context.WithoutCancel(ctx), rs)
		mp.pos = v
		ack.Applied += len(rs)
	default:
		ack.Gap = true
	}
	return ack, nil
}

// replVer orders replication shipments: lexicographic (epoch, seq).
type replVer struct{ epoch, seq uint64 }

func (v replVer) newer(than replVer) bool {
	return v.epoch > than.epoch || (v.epoch == than.epoch && v.seq > than.seq)
}

// mirrorPart is one partition's mirror-side ingest state. mu makes a
// shipment's position check and its application one step; pos is the
// delta stream position (the last shipment applied in sequence, or the
// stamp of the last whole re-ship); seen is the per-user recency gate,
// the stamp of the last shipment applied for each user.
type mirrorPart struct {
	mu   sync.Mutex
	pos  replVer
	seen map[core.UserID]replVer
}

// gateFresh filters a whole-state batch down to records not older than
// anything already applied for their user, recording the new marks. An
// equal stamp passes: snapshots do not consume sequence numbers, so two
// exports with no delta between them share one, and re-installing a
// duplicate is a no-op.
func (mp *mirrorPart) gateFresh(v replVer, states []server.UserState) []server.UserState {
	fresh := states[:0]
	for _, st := range states {
		u := st.Profile.User()
		if have, ok := mp.seen[u]; ok && have.newer(v) {
			continue
		}
		mp.seen[u] = v
		fresh = append(fresh, st)
	}
	return fresh
}

// RotateAnonymizer implements server.Rotator on every local engine.
// Deployments that rotate must do so on every node with the same period,
// or cross-node pseudonym resolution drifts (a drifted result surfaces
// as stale_epoch and is re-issued — safe, but wasteful).
func (n *Node) RotateAnonymizer() { n.cl.RotateAnonymizers() }

// ResolveUser implements server.UserResolver.
func (n *Node) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	return n.cl.ResolveUser(alias, epoch)
}

// Config implements server.Configured.
func (n *Node) Config() server.Config { return n.cl.Config() }

// Topology implements server.TopologyProvider: the embedded cluster's
// ring shape plus the node map in force.
func (n *Node) Topology() wire.Topology {
	t := n.cl.Topology()
	m := n.nm.Load()
	t.NodeEpoch = m.Epoch
	t.Nodes = m.Nodes
	t.Self = n.self.ID
	t.NodeCoordinator = m.Coordinator
	return t
}

// LocateUser implements server.UserLocator.
func (n *Node) LocateUser(u core.UserID) (wire.NodeRef, bool) {
	p := n.cl.Partition(u)
	pr := n.nm.Load().Primary(p)
	if pr == nil {
		return wire.NodeRef{}, false
	}
	return wire.NodeRef{ID: pr.ID, Addr: pr.Addr, Partition: p}, true
}

// Stats implements server.StatsProvider: the embedded cluster's counters
// with the scheduler roll-up restricted to locally-primary partitions
// (a standby mirror's parked backlog is the primary's convergence debt,
// not this node's), plus the replication gauges.
func (n *Node) Stats() map[string]any {
	stats := n.cl.Stats()
	m := n.nm.Load()
	primary, replica := roles(m, n.self.ID)
	server.AddSchedStats(stats, schedStatsFor(n.cl, primary))
	stats["nodes"] = int64(len(m.Nodes))
	stats["node_epoch"] = int64(m.Epoch)
	stats["node_id"] = n.self.ID
	stats["node_role"] = roleName(len(primary), len(replica))
	stats["node_partitions_primary"] = int64(len(primary))
	stats["node_partitions_replica"] = int64(len(replica))
	stats["replica_lag_users"], stats["replica_lag_seq"] = n.repl.lag()
	stats["replica_backlog_users"] = n.repl.backlogHighWater()
	stats["repl_delta_ratings_total"] = n.repl.deltaRatings.Load()
	stats["repl_full_ships_total"] = n.repl.fullShips.Load()
	stats["repl_gaps_total"] = n.repl.gaps.Load()
	stats["failovers_total"] = n.failovers.Load()
	return stats
}

func roleName(primaries, replicas int) string {
	switch {
	case primaries > 0:
		return "primary"
	case replicas > 0:
		return "replica"
	default:
		return "idle"
	}
}

// schedStatsFor aggregates scheduler stats over the given partitions
// only — a standby mirror's parked backlog must not count against this
// node's convergence gauges.
func schedStatsFor(cl *cluster.Cluster, parts map[int]bool) sched.Stats {
	var agg sched.Stats
	for p := range parts {
		s := cl.Engine(p).Scheduler()
		if s == nil {
			continue
		}
		st := s.Stats()
		agg.Issued += st.Issued
		agg.Dispatched += st.Dispatched
		agg.Acked += st.Acked
		agg.Abandoned += st.Abandoned
		agg.Expired += st.Expired
		agg.Reissued += st.Reissued
		agg.FallbackRuns += st.FallbackRuns
		agg.FallbackErrors += st.FallbackErrors
		agg.Pending += st.Pending
		agg.Leased += st.Leased
		agg.FallbackQueued += st.FallbackQueued
		agg.Unrefreshed += st.Unrefreshed
	}
	return agg
}

// replUserState converts a wire replication record to the engine's
// import form.
func replUserState(ru wire.ReplUser) (server.UserState, error) {
	u := core.UserID(ru.UID)
	liked := make([]core.ItemID, len(ru.Liked))
	for i, it := range ru.Liked {
		liked[i] = core.ItemID(it)
	}
	disliked := make([]core.ItemID, len(ru.Disliked))
	for i, it := range ru.Disliked {
		disliked[i] = core.ItemID(it)
	}
	prof, err := core.ProfileFromSets(u, liked, disliked)
	if err != nil {
		return server.UserState{}, fmt.Errorf("node: repl user %d: %w", ru.UID, err)
	}
	st := server.UserState{Profile: prof}
	if len(ru.Neighbors) > 0 {
		st.Neighbors = make([]core.UserID, len(ru.Neighbors))
		for i, v := range ru.Neighbors {
			st.Neighbors[i] = core.UserID(v)
		}
	}
	if len(ru.Recs) > 0 {
		st.Recs = make([]core.ItemID, len(ru.Recs))
		for i, v := range ru.Recs {
			st.Recs[i] = core.ItemID(v)
		}
	}
	return st, nil
}

// replUserFromState is the inverse: engine export → wire record.
func replUserFromState(st server.UserState) wire.ReplUser {
	ru := wire.ReplUser{UID: uint32(st.Profile.User())}
	for _, it := range st.Profile.Liked() {
		ru.Liked = append(ru.Liked, uint32(it))
	}
	for _, it := range st.Profile.Disliked() {
		ru.Disliked = append(ru.Disliked, uint32(it))
	}
	for _, v := range st.Neighbors {
		ru.Neighbors = append(ru.Neighbors, uint32(v))
	}
	for _, v := range st.Recs {
		ru.Recs = append(ru.Recs, uint32(v))
	}
	return ru
}

// Compile-time check: a node is a full-capability service.
var (
	_ server.Service          = (*Node)(nil)
	_ server.PayloadAppender  = (*Node)(nil)
	_ server.JobSource        = (*Node)(nil)
	_ server.LeaseAcker       = (*Node)(nil)
	_ server.Rotator          = (*Node)(nil)
	_ server.UserResolver     = (*Node)(nil)
	_ server.Configured       = (*Node)(nil)
	_ server.StatsProvider    = (*Node)(nil)
	_ server.JobDispatcher    = (*Node)(nil)
	_ server.TopologyProvider = (*Node)(nil)
	_ server.Replicator       = (*Node)(nil)
	_ server.NodeMapSink      = (*Node)(nil)
	_ server.UserLocator      = (*Node)(nil)
	_ server.NodeEpocher      = (*Node)(nil)
)
