package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec"
	"hyrec/client"
	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

var tctx = context.Background()

func testEngineConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Seed = 42
	cfg.K = 3
	cfg.R = 5
	return cfg
}

// soloNode builds a 1-member deployment with background loops off.
func soloNode(t *testing.T, cfg server.Config, partitions int) *Node {
	t.Helper()
	self := Member{ID: "n1", Addr: "http://127.0.0.1:1"}
	nd, err := New(Config{
		Self:           self,
		Members:        []Member{self},
		Partitions:     partitions,
		Engine:         cfg,
		HeartbeatEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// TestSingleNodeEquivalence pins the deployment floor, same discipline
// as cluster.TestOnePartitionRingEquivalence: a 1-node deployment
// serves byte-identical job payloads — and identical recommendations —
// to the in-process Cluster it embeds, under the same seed and
// workload. Multi-node is purely additive.
func TestSingleNodeEquivalence(t *testing.T) {
	cfg := testEngineConfig()
	const parts = 4
	clus := cluster.New(cfg, parts)
	defer clus.Close()
	nd := soloNode(t, cfg, parts)
	wc, wn := widget.New(), widget.New()

	const users = 30
	for round := 0; round < 3; round++ {
		for u := core.UserID(1); u <= users; u++ {
			item := core.ItemID(uint32(u)*11 + uint32(round))
			if err := clus.Rate(tctx, u, item, true); err != nil {
				t.Fatal(err)
			}
			if err := nd.Rate(tctx, u, item, true); err != nil {
				t.Fatal(err)
			}

			cbody, err := clus.AppendJob(tctx, u, nil)
			if err != nil {
				t.Fatalf("cluster AppendJob(%d): %v", u, err)
			}
			nbody, err := nd.AppendJob(tctx, u, nil)
			if err != nil {
				t.Fatalf("node AppendJob(%d): %v", u, err)
			}
			if !bytes.Equal(cbody, nbody) {
				t.Fatalf("round %d user %d: payload bytes diverged:\ncluster % x\nnode    % x",
					round, u, cbody, nbody)
			}

			cjob, err := clus.Job(tctx, u)
			if err != nil {
				t.Fatal(err)
			}
			cres, _ := wc.Execute(cjob)
			crecs, err := clus.ApplyResult(tctx, cres)
			if err != nil {
				t.Fatal(err)
			}
			njob, err := nd.Job(tctx, u)
			if err != nil {
				t.Fatal(err)
			}
			nres, _ := wn.Execute(njob)
			nrecs, err := nd.ApplyResult(tctx, nres)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(crecs) != fmt.Sprint(nrecs) {
				t.Fatalf("round %d user %d: recommendations diverged: %v vs %v", round, u, crecs, nrecs)
			}
		}
	}
}

// mirrorNode builds a node that accepts replication for every partition
// (in a 2-member map it is primary or replica of each) without any live
// peer.
func mirrorNode(t *testing.T, cfg server.Config, partitions int) *Node {
	t.Helper()
	mems := []Member{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: "http://127.0.0.1:2"},
	}
	nd, err := New(Config{
		Self:           mems[1],
		Members:        mems,
		Partitions:     partitions,
		Engine:         cfg,
		HeartbeatEvery: -1,
		ReplicateEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Kill() })
	return nd
}

// TestReplicationIdempotent is the property test for the replication
// stream: delivering the same batch sequence twice, or in a shuffled
// order with duplicates, converges a mirror to the same state as
// exactly-once in-order delivery. Partitions the receiving node mirrors
// take the snapshot-with-recency-gate path and must converge on full
// state (profile, KNN row, recommendations); partitions it owns take
// the destination-wins merge (the handoff-tail discipline) and must
// converge on the authoritative opinion sets.
func TestReplicationIdempotent(t *testing.T) {
	cfg := testEngineConfig()
	const parts = 4
	const users = 24
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(7 + trial)))
		src := cluster.New(cfg, parts)
		w := widget.New()

		// Build the batch log: three waves of ratings, a widget cycle to
		// populate KNN rows and recommendation caches, and a full export
		// after each wave — so later batches carry strictly newer
		// snapshots of the same users.
		var batches []*wireBatch
		seq := uint64(0)
		for wave := 0; wave < 3; wave++ {
			for u := core.UserID(1); u <= users; u++ {
				for j := 0; j < 2; j++ {
					item := core.ItemID(uint32(wave)*100_000 + uint32(u)*100 + uint32(j) + 1)
					if err := src.Rate(tctx, u, item, rng.Intn(2) == 0); err != nil {
						t.Fatal(err)
					}
				}
				job, err := src.Job(tctx, u)
				if err != nil {
					t.Fatal(err)
				}
				res, _ := w.Execute(job)
				if _, err := src.ApplyResult(tctx, res); err != nil {
					t.Fatal(err)
				}
			}
			for p := 0; p < parts; p++ {
				e := src.Engine(p)
				states := e.ExportUsers(e.Profiles().Users())
				if len(states) == 0 {
					continue
				}
				seq++
				b := &wireBatch{partition: p, seq: seq}
				for _, st := range states {
					b.users = append(b.users, replUserFromState(st))
				}
				batches = append(batches, b)
			}
		}

		inOrder := mirrorNode(t, cfg, parts)
		chaotic := mirrorNode(t, cfg, parts)
		for _, b := range batches {
			deliver(t, inOrder, b)
		}
		// Shuffle and deliver everything twice.
		twice := append(append([]*wireBatch(nil), batches...), batches...)
		rng.Shuffle(len(twice), func(i, j int) { twice[i], twice[j] = twice[j], twice[i] })
		for _, b := range twice {
			deliver(t, chaotic, b)
		}

		_, mirrored := roles(inOrder.Map(), inOrder.Self().ID)
		for p := 0; p < parts; p++ {
			for _, u := range src.Engine(p).Profiles().Users() {
				if mirrored[p] {
					// Mirror discipline: the full snapshot converges.
					a := stateString(inOrder.Cluster().Engine(p), u)
					c := stateString(chaotic.Cluster().Engine(p), u)
					want := stateString(src.Engine(p), u)
					if a != c || a != want {
						t.Fatalf("trial %d user %d (mirror p%d): delivery orders diverged:\nin-order %s\nchaotic  %s\nsource   %s",
							trial, u, p, a, c, want)
					}
					continue
				}
				// Handoff-merge discipline: opinion sets converge.
				a := profileString(inOrder.Cluster().Engine(p), u)
				c := profileString(chaotic.Cluster().Engine(p), u)
				want := profileString(src.Engine(p), u)
				if a != c || a != want {
					t.Fatalf("trial %d user %d (owned p%d): profiles diverged:\nin-order %s\nchaotic  %s\nsource   %s",
						trial, u, p, a, c, want)
				}
			}
		}
		src.Close()
	}
}

// TestReplicationReRateConverges pins the recency gate against the case
// the union merge cannot handle: a user flips an opinion (dislike →
// like), so later snapshots contradict earlier ones. On a mirrored
// partition the newest snapshot must win in every delivery order.
func TestReplicationReRateConverges(t *testing.T) {
	cfg := testEngineConfig()
	const parts = 4
	probe := mirrorNode(t, cfg, parts)
	_, mirrored := roles(probe.Map(), probe.Self().ID)
	var u core.UserID
	for cand := core.UserID(1); ; cand++ {
		if mirrored[probe.Cluster().Partition(cand)] {
			u = cand
			break
		}
	}
	p := probe.Cluster().Partition(u)
	v1 := &wireBatch{partition: p, seq: 1, users: []wire.ReplUser{{UID: uint32(u), Disliked: []uint32{9}}}}
	v2 := &wireBatch{partition: p, seq: 2, users: []wire.ReplUser{{UID: uint32(u), Liked: []uint32{9}}}}

	orders := [][]*wireBatch{
		{v1, v2},
		{v2, v1},
		{v2, v1, v2, v1, v1},
	}
	for i, order := range orders {
		nd := mirrorNode(t, cfg, parts)
		for _, b := range order {
			deliver(t, nd, b)
		}
		prof := nd.Cluster().Engine(p).Profiles().Get(u)
		if fmt.Sprint(prof.Liked()) != fmt.Sprint([]core.ItemID{9}) || len(prof.Disliked()) != 0 {
			t.Fatalf("order %d: final profile liked=%v disliked=%v, want the seq-2 snapshot (liked=[9])",
				i, prof.Liked(), prof.Disliked())
		}
	}
}

type wireBatch struct {
	partition int
	seq       uint64
	users     []wire.ReplUser
}

func (b *wireBatch) toWire() *wire.ReplBatch {
	return &wire.ReplBatch{Epoch: 1, Partition: b.partition, Seq: b.seq, Full: true, Users: b.users}
}

func deliver(t *testing.T, nd *Node, b *wireBatch) {
	t.Helper()
	ack, err := nd.Replicate(tctx, b.toWire())
	if err != nil {
		t.Fatalf("Replicate(p=%d seq=%d): %v", b.partition, b.seq, err)
	}
	// Stale/duplicate records are dropped at the recency gate, so the
	// only invariant is that the ack echoes the sequence number.
	if ack.Seq != b.seq {
		t.Fatalf("Replicate(p=%d seq=%d): ack echoed seq %d", b.partition, b.seq, ack.Seq)
	}
}

func profileString(e *server.Engine, u core.UserID) string {
	p := e.Profiles().Get(u)
	return fmt.Sprintf("liked=%v disliked=%v", p.Liked(), p.Disliked())
}

func stateString(e *server.Engine, u core.UserID) string {
	states := e.ExportUsers([]core.UserID{u})
	if len(states) == 0 {
		return "<absent>"
	}
	st := states[0]
	return fmt.Sprintf("liked=%v disliked=%v neighbors=%v recs=%v",
		st.Profile.Liked(), st.Profile.Disliked(), st.Neighbors, st.Recs)
}

// ---- failover acceptance ----

type liveNode struct {
	member Member
	node   *Node
	srv    *http.Server
	ln     net.Listener
}

// testPeerSecret gates the node plane in every live-deployment test, so
// the full replication/failover loop runs authenticated.
const testPeerSecret = "test-node-plane-secret"

// bootNode starts one live HTTP node of the deployment on ln.
func bootNode(t *testing.T, self Member, mems []Member, engine server.Config, partitions int, ln net.Listener) *liveNode {
	t.Helper()
	nd, err := New(Config{
		Self:             self,
		Members:          mems,
		Partitions:       partitions,
		Engine:           engine,
		ReplicateEvery:   20 * time.Millisecond,
		AntiEntropyEvery: 300 * time.Millisecond,
		HeartbeatEvery:   25 * time.Millisecond,
		DeadAfter:        3,
		PeerTimeout:      2 * time.Second,
		PeerSecret:       testPeerSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := server.NewServer(nd, 0)
	hs.RequireNodeSecret(testPeerSecret)
	srv := &http.Server{Handler: hs.Handler()}
	go srv.Serve(ln)
	nd.Start()
	return &liveNode{member: self, node: nd, srv: srv, ln: ln}
}

// startDeployment boots n real HTTP nodes on loopback listeners.
func startDeployment(t *testing.T, n int, engine server.Config, partitions int) []*liveNode {
	t.Helper()
	lns := make([]net.Listener, n)
	mems := make([]Member, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		mems[i] = Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	out := make([]*liveNode, n)
	for i := 0; i < n; i++ {
		out[i] = bootNode(t, mems[i], mems, engine, partitions, lns[i])
	}
	t.Cleanup(func() {
		for _, ln := range out {
			ln.srv.Close()
			ln.node.Kill()
		}
	})
	return out
}

type ackedRating struct {
	user core.UserID
	item core.ItemID
}

// TestFailoverZeroAckedLoss is the acceptance scenario: a 3-node
// cluster under live raters and workers loses one node to a hard kill;
// the survivors promote its replicas, every acknowledged rating is
// still present on the partition's new primary, and the promoted
// backlog reconverges (sched_unrefreshed returns to 0).
func TestFailoverZeroAckedLoss(t *testing.T) {
	engine := testEngineConfig()
	engine.LeaseTTL = 300 * time.Millisecond
	const parts = 12
	nodes := startDeployment(t, 3, engine, parts)

	// Live workers on every node drain the schedulers.
	wctx, stopWorkers := context.WithCancel(context.Background())
	var workerWG sync.WaitGroup
	for _, ln := range nodes {
		workerWG.Add(1)
		go func(nd *Node) {
			defer workerWG.Done()
			w := widget.New()
			for wctx.Err() == nil {
				jctx, cancel := context.WithTimeout(wctx, 100*time.Millisecond)
				job, err := nd.NextJob(jctx)
				cancel()
				if err != nil || job == nil {
					continue
				}
				res, _ := w.Execute(job)
				_, _ = nd.ApplyResult(wctx, res)
			}
		}(ln.node)
	}

	// Live raters via the HTTP client, one per node, disjoint item
	// streams. Only ratings whose call returned OK count as acknowledged.
	var ackMu sync.Mutex
	var acked []ackedRating
	rctx, stopRaters := context.WithCancel(context.Background())
	var raterWG sync.WaitGroup
	for i, ln := range nodes {
		raterWG.Add(1)
		go func(i int, addr string) {
			defer raterWG.Done()
			c := client.New(addr, client.WithTimeout(2*time.Second))
			defer c.Close()
			seq := uint32(0)
			for rctx.Err() == nil {
				seq++
				u := core.UserID(seq%40 + 1)
				item := core.ItemID(uint32(i+1)*100_000 + seq)
				err := c.RateBatch(rctx, []core.Rating{{User: u, Item: item, Liked: true}})
				if err == nil {
					ackMu.Lock()
					acked = append(acked, ackedRating{user: u, item: item})
					ackMu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i, ln.member.Addr)
	}

	// Let traffic flow, then hard-kill the primary of user 1's partition.
	time.Sleep(400 * time.Millisecond)
	victimID := nodes[0].node.Map().Primary(nodes[0].node.Cluster().Partition(1)).ID
	var victim *liveNode
	var survivors []*liveNode
	for _, ln := range nodes {
		if ln.member.ID == victimID {
			victim = ln
		} else {
			survivors = append(survivors, ln)
		}
	}
	victim.ln.Close()
	victim.srv.Close()
	victim.node.Kill()

	// Survivors must converge on a 2-node map with a bumped epoch.
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range survivors {
		for {
			m := s.node.Map()
			if m.Epoch >= 2 && len(m.Nodes) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never adopted the 2-node map (epoch %d, %d nodes)",
					s.member.ID, m.Epoch, len(m.Nodes))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A little more live traffic against the new topology, then quiesce.
	time.Sleep(300 * time.Millisecond)
	stopRaters()
	raterWG.Wait()

	// The promoted backlog must drain: both survivors' primary-partition
	// schedulers return to zero unrefreshed users while workers run.
	for {
		total := int64(0)
		for _, s := range survivors {
			total += s.node.Stats()["sched_unrefreshed"].(int64)
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sched_unrefreshed stuck at %d after failover", total)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopWorkers()
	workerWG.Wait()

	// Exactly one failover event across the survivors.
	failovers := int64(0)
	for _, s := range survivors {
		failovers += s.node.Stats()["failovers_total"].(int64)
	}
	if failovers < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", failovers)
	}

	// Zero acknowledged-rating loss: every acked rating is present on
	// its partition's current primary.
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no ratings were acknowledged — test proved nothing")
	}
	byID := map[string]*Node{}
	for _, s := range survivors {
		byID[s.member.ID] = s.node
	}
	m := survivors[0].node.Map()
	lost := 0
	for _, ar := range acked {
		p := survivors[0].node.Cluster().Partition(ar.user)
		owner := byID[m.Primary(p).ID]
		if owner == nil {
			t.Fatalf("partition %d primary %s is not a survivor", p, m.Primary(p).ID)
		}
		if !owner.Cluster().Engine(p).Profiles().Get(ar.user).Contains(ar.item) {
			lost++
			t.Errorf("acked rating lost: user %d item %d (partition %d)", ar.user, ar.item, p)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged ratings lost after failover", lost, len(acked))
	}
	t.Logf("failover survived: %d acknowledged ratings all present", len(acked))
}

// TestReplicaRejectsWorkerTraffic pins the satellite fix: a worker
// Result or Ack landing on the partition's replica must be rejected
// with the typed not_primary envelope naming the primary — never folded
// silently into the mirror, which is a replica of the primary's
// history, not a second authority.
func TestReplicaRejectsWorkerTraffic(t *testing.T) {
	cfg := testEngineConfig()
	cfg.LeaseTTL = time.Minute
	const parts = 4
	nd := mirrorNode(t, cfg, parts)
	_, mirrored := roles(nd.Map(), nd.Self().ID)
	var u core.UserID
	for cand := core.UserID(1); ; cand++ {
		if mirrored[nd.Cluster().Partition(cand)] {
			u = cand
			break
		}
	}
	p := nd.Cluster().Partition(u)
	if err := nd.Cluster().Rate(tctx, u, 7, true); err != nil {
		t.Fatal(err)
	}
	// Mint a real job straight off the embedded cluster (bypassing the
	// role gate, as a confused worker holding a stale topology would).
	job, err := nd.Cluster().Job(tctx, u)
	if err != nil {
		t.Fatal(err)
	}
	w := widget.New()
	res, _ := w.Execute(job)

	_, err = nd.ApplyResult(tctx, res)
	var np *server.NotPrimaryError
	if !errors.As(err, &np) || !errors.Is(err, hyrec.ErrNotPrimary) {
		t.Fatalf("replica ApplyResult = %v, want NotPrimaryError", err)
	}
	if np.Partition != p || np.PrimaryID != "a" {
		t.Fatalf("NotPrimaryError = %+v, want partition %d primary a", np, p)
	}
	if err := nd.Ack(tctx, job.Lease, true); !errors.Is(err, hyrec.ErrNotPrimary) {
		t.Fatalf("replica Ack = %v, want ErrNotPrimary", err)
	}

	// Over the wire the rejection is the 421 envelope with the primary's
	// address, the shape the client's retry-once path consumes.
	ts := httptest.NewServer(server.NewServer(nd, 0).Handler())
	defer ts.Close()
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("POST /v1/result to replica = %d, want 421", resp.StatusCode)
	}
	var env struct {
		Error wire.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != wire.CodeNotPrimary {
		t.Fatalf("error code = %q, want %q", env.Error.Code, wire.CodeNotPrimary)
	}
	if env.Error.Primary == "" {
		t.Fatal("envelope does not name the primary address")
	}
}
