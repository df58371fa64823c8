package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// TestRestartedNodeReconverges pins the epoch-exchange repair path: a
// killed node that comes back boots on the epoch-1 map over the full
// static membership, so its own liveness view never disagrees with its
// map — without the heartbeat epoch exchange it would coordinate (it
// has the lowest ID) on stale epoch-1 assignments forever while the
// survivors run a higher epoch: dual primaries for the same partitions.
// With the exchange, survivors push their newer map to it within one
// heartbeat round, it re-publishes over the full membership, and every
// node converges on one map that includes it again — with the state it
// missed handed back.
func TestRestartedNodeReconverges(t *testing.T) {
	engine := testEngineConfig()
	const parts = 8
	nodes := startDeployment(t, 3, engine, parts)
	mems := []Member{nodes[0].member, nodes[1].member, nodes[2].member}

	// Seed state through a survivor-to-be so there is something to hand
	// back to the restarted node.
	const users = 24
	for u := core.UserID(1); u <= users; u++ {
		if err := nodes[1].node.Rate(tctx, u, core.ItemID(1000+uint32(u)), true); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the lowest-ID node — the one that, restarted, becomes the
	// coordinator for the full alive set and must NOT win with its boot map.
	victim := nodes[0]
	victim.ln.Close()
	victim.srv.Close()
	victim.node.Kill()

	deadline := time.Now().Add(15 * time.Second)
	for _, s := range nodes[1:] {
		for {
			m := s.node.Map()
			if m.Epoch >= 2 && len(m.Nodes) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("survivor %s never adopted the 2-node map", s.member.ID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	survivorEpoch := nodes[1].node.Map().Epoch

	// Restart the victim: same identity and address, fresh empty state —
	// exactly what a supervisor restarting the process produces.
	var ln net.Listener
	for {
		var err error
		ln, err = net.Listen("tcp", victim.ln.Addr().String())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", victim.ln.Addr(), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted := bootNode(t, victim.member, mems, engine, parts, ln)
	t.Cleanup(func() {
		restarted.srv.Close()
		restarted.node.Kill()
	})

	// All three must converge on one higher-epoch map spanning 3 nodes.
	live := []*liveNode{restarted, nodes[1], nodes[2]}
	for {
		converged := true
		var epoch uint64
		for i, s := range live {
			m := s.node.Map()
			if len(m.Nodes) != 3 || m.Epoch <= survivorEpoch {
				converged = false
				break
			}
			if i == 0 {
				epoch = m.Epoch
			} else if m.Epoch != epoch {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, s := range live {
				m := s.node.Map()
				t.Logf("%s: epoch=%d nodes=%d", s.member.ID, m.Epoch, len(m.Nodes))
			}
			t.Fatal("cluster never reconverged on a 3-node map after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The restarted node must get its partitions' state back through the
	// demotion/handoff (plus anti-entropy) path: pick a seeded user it
	// now owns and wait for the rating to appear.
	m := restarted.node.Map()
	var tracked core.UserID
	for u := core.UserID(1); u <= users; u++ {
		p := restarted.node.Cluster().Partition(u)
		if pr := m.Primary(p); pr != nil && pr.ID == restarted.member.ID {
			tracked = u
			break
		}
	}
	if tracked == 0 {
		t.Fatalf("no seeded user landed on the restarted node's partitions")
	}
	p := restarted.node.Cluster().Partition(tracked)
	item := core.ItemID(1000 + uint32(tracked))
	for !restarted.node.Cluster().Engine(p).Profiles().Get(tracked).Contains(item) {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node never recovered user %d's rating", tracked)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentShipNewestWins pins the export/seq atomicity of the
// replication ship path: many concurrent RateBatch calls for one user
// race their synchronous replica ships, and the mirror must end up with
// the full opinion set. Before the per-partition ship lock, a ship that
// exported early but drew its seq late could stamp a stale snapshot as
// newest, and the mirror's recency gate would install it over the
// complete one — silently dropping acknowledged ratings.
func TestConcurrentShipNewestWins(t *testing.T) {
	engine := testEngineConfig()
	const parts = 4
	nodes := startDeployment(t, 2, engine, parts)

	// A user whose primary is node[primIdx] and whose replica is the other.
	u := core.UserID(7)
	p := nodes[0].node.Cluster().Partition(u)
	m := nodes[0].node.Map()
	var primary, mirror *liveNode
	for _, ln := range nodes {
		if m.Primary(p).ID == ln.member.ID {
			primary = ln
		} else {
			mirror = ln
		}
	}

	const ratings = 32
	var wg sync.WaitGroup
	for i := 0; i < ratings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := core.ItemID(uint32(5000 + i))
			if err := primary.node.RateBatch(tctx, []core.Rating{{User: u, Item: item, Liked: true}}); err != nil {
				t.Errorf("RateBatch(%d): %v", item, err)
			}
		}(i)
	}
	wg.Wait()

	// Every acked rating must reach the mirror (the async tail retries
	// any ship that failed, so poll briefly rather than asserting once).
	deadline := time.Now().Add(10 * time.Second)
	for {
		prof := mirror.node.Cluster().Engine(p).Profiles().Get(u)
		missing := 0
		for i := 0; i < ratings; i++ {
			if !prof.Contains(core.ItemID(uint32(5000 + i))) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror still missing %d of %d concurrently-acked ratings", missing, ratings)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReconcileRequiresQuorum pins the fencing rule: a coordinator may
// publish a new map only when it observes a strict majority of the
// static membership alive, so the two sides of a symmetric partition
// can never both publish conflicting maps.
func TestReconcileRequiresQuorum(t *testing.T) {
	mems := []Member{
		{ID: "n1", Addr: "http://127.0.0.1:1"},
		{ID: "n2", Addr: "http://127.0.0.1:2"},
		{ID: "n3", Addr: "http://127.0.0.1:3"},
	}
	nd, err := New(Config{
		Self:           mems[0],
		Members:        mems,
		Partitions:     4,
		Engine:         testEngineConfig(),
		HeartbeatEvery: -1,
		ReplicateEvery: -1,
		PeerTimeout:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// Minority island (self only): the alive set disagrees with the
	// 3-node map, self is the lowest alive ID — and it must still not
	// publish.
	nd.hb.reconcile([]Member{mems[0]})
	if got := nd.Map().Epoch; got != 1 {
		t.Fatalf("minority coordinator published epoch %d, want boot epoch 1", got)
	}

	// Not the coordinator: a majority is alive but a lower ID is too.
	nd2, err := New(Config{
		Self:           mems[1],
		Members:        mems,
		Partitions:     4,
		Engine:         testEngineConfig(),
		HeartbeatEvery: -1,
		ReplicateEvery: -1,
		PeerTimeout:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	nd2.hb.reconcile([]Member{mems[0], mems[1]})
	if got := nd2.Map().Epoch; got != 1 {
		t.Fatalf("non-coordinator published epoch %d, want boot epoch 1", got)
	}

	// Majority + lowest alive ID: publish.
	nd.hb.reconcile([]Member{mems[0], mems[1]})
	m := nd.Map()
	if m.Epoch != 2 || len(m.Nodes) != 2 {
		t.Fatalf("majority coordinator map = epoch %d over %d nodes, want epoch 2 over 2", m.Epoch, len(m.Nodes))
	}
	if m.Coordinator != "n1" {
		t.Fatalf("published map coordinator = %q, want n1", m.Coordinator)
	}
}

// TestEqualEpochTieBreak pins the deterministic resolution of racing
// publishes: when two coordinators (a partial partition where each saw
// its own majority) publish different maps at the same epoch, every
// receiver settles on the lower coordinator ID — not on whichever push
// happened to arrive first.
func TestEqualEpochTieBreak(t *testing.T) {
	nd := mirrorNode(t, testEngineConfig(), 4)

	fromB := BuildMap([]Member{{ID: "b", Addr: "http://127.0.0.1:2"}, {ID: "c", Addr: "http://127.0.0.1:3"}}, 4, 2)
	fromB.Coordinator = "b"
	if err := nd.ApplyNodeMap(tctx, fromB); err != nil {
		t.Fatal(err)
	}
	if got := nd.Map().Coordinator; got != "b" {
		t.Fatalf("coordinator after first push = %q, want b", got)
	}

	fromA := BuildMap([]Member{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "c", Addr: "http://127.0.0.1:3"}}, 4, 2)
	fromA.Coordinator = "a"
	if err := nd.ApplyNodeMap(tctx, fromA); err != nil {
		t.Fatal(err)
	}
	if got := nd.Map().Coordinator; got != "a" {
		t.Fatalf("equal-epoch push from lower coordinator ignored (coordinator = %q, want a)", got)
	}

	// Re-delivery of the loser and a higher-ID third publisher are both no-ops.
	if err := nd.ApplyNodeMap(tctx, fromB); err != nil {
		t.Fatal(err)
	}
	fromD := BuildMap([]Member{{ID: "c", Addr: "http://127.0.0.1:3"}, {ID: "d", Addr: "http://127.0.0.1:4"}}, 4, 2)
	fromD.Coordinator = "d"
	if err := nd.ApplyNodeMap(tctx, fromD); err != nil {
		t.Fatal(err)
	}
	if got := nd.Map().Coordinator; got != "a" {
		t.Fatalf("tie-break not sticky: coordinator = %q, want a", got)
	}
	// A higher epoch still supersedes regardless of coordinator order.
	next := BuildMap([]Member{{ID: "z", Addr: "http://127.0.0.1:9"}}, 4, 3)
	next.Coordinator = "z"
	if err := nd.ApplyNodeMap(tctx, next); err != nil {
		t.Fatal(err)
	}
	if got := nd.Map().Epoch; got != 3 {
		t.Fatalf("higher epoch ignored: epoch = %d, want 3", got)
	}
}

// TestNodePlaneSecret pins the trust boundary: with a shared secret
// configured, POST /v1/nodes and /v1/replicate reject requests without
// it (403/forbidden), and accept the same body with it. /healthz stays
// open and advertises the node-map epoch for the heartbeat exchange.
func TestNodePlaneSecret(t *testing.T) {
	nd := mirrorNode(t, testEngineConfig(), 4)
	hs := server.NewServer(nd, 0)
	hs.RequireNodeSecret("s3cret")
	ts := httptest.NewServer(hs.Handler())
	defer ts.Close()

	mapBody, err := wire.EncodeNodeMap(BuildMap([]Member{{ID: "x", Addr: "http://127.0.0.1:1"}}, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	replBody, err := wire.EncodeReplShipment([]wire.ReplBatch{{
		Epoch: 1, Partition: 0, Seq: 1,
		Users: []wire.ReplUser{{UID: 1, Liked: []uint32{2}}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Replicate first: once the epoch-9 map (naming only node x) is
	// adopted, this node no longer mirrors partition 0 and would answer
	// 421 rather than 200.
	for _, tc := range []struct {
		path string
		body []byte
	}{{"/v1/replicate", replBody}, {"/v1/nodes", mapBody}} {
		path, body := tc.path, tc.body
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error wire.ErrorBody `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || env.Error.Code != wire.CodeForbidden {
			t.Fatalf("POST %s without secret = %d/%q, want 403/forbidden", path, resp.StatusCode, env.Error.Code)
		}

		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.NodeSecretHeader, "s3cret")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s with secret = %d, want 200", path, resp.StatusCode)
		}
	}
	if got := nd.Map().Epoch; got != 9 {
		t.Fatalf("authenticated map push not applied: epoch = %d, want 9", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind secret = %d, want open 200", resp.StatusCode)
	}
	if got := resp.Header.Get(server.NodeEpochHeader); got != fmt.Sprint(nd.Map().Epoch) {
		t.Fatalf("healthz %s = %q, want %d", server.NodeEpochHeader, got, nd.Map().Epoch)
	}
}
