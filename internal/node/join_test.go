package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hyrec"
	"hyrec/client"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
)

// TestNodeJoinUnderTraffic pins growth by node count, the deployment's
// one elasticity mechanism: a listed member that was down at boot comes
// up while the other two serve live raters and workers. The coordinator
// rebalances partitions onto it, the old primaries hand their state
// over, and once all three nodes run one 3-node map every acknowledged
// rating is on its partition's final primary. No lease completes twice:
// each (minting node, lease) pair is dispatched and completed once, and
// a repeated done-ack for a completed lease is refused by the scheduler
// that minted it.
func TestNodeJoinUnderTraffic(t *testing.T) {
	engine := testEngineConfig()
	engine.LeaseTTL = 300 * time.Millisecond
	const parts = 12

	// Reserve three addresses; the third member stays down at boot.
	lns := make([]net.Listener, 3)
	mems := make([]Member, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		mems[i] = Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	joinAddr := lns[2].Addr().String()
	lns[2].Close()
	nodes := []*liveNode{
		bootNode(t, mems[0], mems, engine, parts, lns[0]),
		bootNode(t, mems[1], mems, engine, parts, lns[1]),
	}
	t.Cleanup(func() {
		for _, ln := range nodes {
			ln.srv.Close()
			ln.node.Kill()
		}
	})

	// The two live nodes must first agree on a 2-node map (the absent
	// member's partitions reassigned to them).
	deadline := time.Now().Add(15 * time.Second)
	converge := func(live []*liveNode, size int, above uint64) uint64 {
		t.Helper()
		for {
			epoch, agreed := live[0].node.Map().Epoch, true
			for _, s := range live {
				m := s.node.Map()
				if len(m.Nodes) != size || m.Epoch <= above || m.Epoch != epoch {
					agreed = false
				}
			}
			if agreed {
				return epoch
			}
			if time.Now().After(deadline) {
				for _, s := range live {
					m := s.node.Map()
					t.Logf("%s: epoch=%d nodes=%d", s.member.ID, m.Epoch, len(m.Nodes))
				}
				t.Fatalf("nodes never converged on a %d-node map above epoch %d", size, above)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	twoNodeEpoch := converge(nodes, 2, 1)

	// Seed every user through one node so the joiner has state to take.
	const users = 40
	var ackMu sync.Mutex
	var acked []ackedRating
	for u := core.UserID(1); u <= users; u++ {
		item := core.ItemID(1000 + uint32(u))
		if err := nodes[0].node.Rate(tctx, u, item, true); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ackedRating{user: u, item: item})
	}

	// Live workers drain each node's schedulers, recording every
	// completion under the node that minted its lease.
	type mint struct {
		node  string
		lease uint64
	}
	var doneMu sync.Mutex
	completed := map[mint]int{}
	wctx, stopWorkers := context.WithCancel(context.Background())
	var workerWG sync.WaitGroup
	startWorker := func(s *liveNode) {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			w := widget.New()
			for wctx.Err() == nil {
				jctx, cancel := context.WithTimeout(wctx, 100*time.Millisecond)
				job, err := s.node.NextJob(jctx)
				cancel()
				if err != nil || job == nil {
					continue
				}
				res, _ := w.Execute(job)
				if _, err := s.node.ApplyResult(wctx, res); err != nil || job.Lease == 0 {
					continue
				}
				doneMu.Lock()
				completed[mint{s.member.ID, job.Lease}]++
				doneMu.Unlock()
				if err := s.node.Cluster().Ack(wctx, job.Lease, true); err == nil {
					t.Errorf("%s: lease %d completed a second time", s.member.ID, job.Lease)
				}
			}
		}()
	}
	for _, s := range nodes {
		startWorker(s)
	}

	// Live raters, one per serving node, on disjoint item streams. Only
	// ratings whose call returned OK count as acknowledged.
	rctx, stopRaters := context.WithCancel(context.Background())
	var raterWG sync.WaitGroup
	for i, s := range nodes {
		raterWG.Add(1)
		go func(i int, addr string) {
			defer raterWG.Done()
			c := client.New(addr, client.WithTimeout(2*time.Second))
			defer c.Close()
			seq := uint32(0)
			for rctx.Err() == nil {
				seq++
				u := core.UserID(seq%users + 1)
				item := core.ItemID(uint32(i+1)*100_000 + seq)
				if err := c.RateBatch(rctx, []core.Rating{{User: u, Item: item, Liked: true}}); err == nil {
					ackMu.Lock()
					acked = append(acked, ackedRating{user: u, item: item})
					ackMu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i, s.member.Addr)
	}

	// Bring the missing member up mid-traffic on its listed address.
	time.Sleep(300 * time.Millisecond)
	var ln net.Listener
	for {
		var err error
		if ln, err = net.Listen("tcp", joinAddr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not bind %s: %v", joinAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	joiner := bootNode(t, mems[2], mems, engine, parts, ln)
	nodes = append(nodes, joiner)
	startWorker(joiner)
	converge(nodes, 3, twoNodeEpoch)

	// More traffic against the grown map, then quiesce.
	time.Sleep(300 * time.Millisecond)
	stopRaters()
	raterWG.Wait()
	stopWorkers()
	workerWG.Wait()

	m := joiner.node.Map()
	owns := 0
	for p := 0; p < parts; p++ {
		if pr := m.Primary(p); pr != nil && pr.ID == joiner.member.ID {
			owns++
		}
	}
	if owns == 0 {
		t.Fatal("the joined node is primary of no partition")
	}

	byID := map[string]*Node{}
	for _, s := range nodes {
		byID[s.member.ID] = s.node
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	lost := 0
	for _, ar := range acked {
		p := joiner.node.Cluster().Partition(ar.user)
		owner := byID[m.Primary(p).ID]
		if !owner.Cluster().Engine(p).Profiles().Get(ar.user).Contains(ar.item) {
			lost++
			t.Errorf("acked rating lost: user %d item %d (partition %d, primary %s)", ar.user, ar.item, p, m.Primary(p).ID)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged ratings missing from their final primary after the join", lost, len(acked))
	}

	doneMu.Lock()
	defer doneMu.Unlock()
	for k, n := range completed {
		if n > 1 {
			t.Errorf("%s: lease %d completed %d times", k.node, k.lease, n)
		}
	}
	t.Logf("join under traffic: %d acknowledged ratings on their primaries, %d leases completed, joiner primary of %d/%d partitions",
		len(acked), len(completed), owns, parts)
}

// TestApplyRefusesAPartitionHandedOff pins the other half of the
// handoff ordering: a RateBatch that read the map before a rebalance
// must not apply its run once the map has moved the partition away, or
// the rating would be acknowledged here after the handoff's export and
// reach the new primary on no stream. apply re-checks the primary under
// the partition's ship lock and refuses.
func TestApplyRefusesAPartitionHandedOff(t *testing.T) {
	const parts = 4
	nd := soloNode(t, testEngineConfig(), parts)
	m := BuildMap([]Member{nd.Self(), {ID: "n2", Addr: "http://127.0.0.1:1"}}, parts, 2)
	u := core.UserID(1)
	for primaryIn(m, nd.Cluster().Partition(u)) != "n2" {
		u++
	}
	p := nd.Cluster().Partition(u)
	if _, _, ok := nd.repl.apply(tctx, p, []core.Rating{{User: u, Item: 8, Liked: true}}); !ok {
		t.Fatal("apply refused a partition this node is primary of")
	}
	if err := nd.ApplyNodeMap(tctx, m); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := nd.repl.apply(tctx, p, []core.Rating{{User: u, Item: 9, Liked: true}}); ok {
		t.Fatal("apply accepted a run for a partition handed off to n2")
	}
	if nd.Cluster().Engine(p).Profiles().Get(u).Contains(9) {
		t.Fatal("a refused run reached the engine")
	}
	if err := nd.RateBatch(server.WithForwarded(tctx), []core.Rating{{User: u, Item: 9, Liked: true}}); !errors.Is(err, hyrec.ErrNotPrimary) {
		t.Fatalf("forwarded RateBatch for a handed-off partition = %v, want ErrNotPrimary", err)
	}
}
