package node

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"hyrec/client"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// peerPlaneCounter counts the HTTP hits on the peer-plane hot paths a
// framed deployment is supposed to keep off HTTP entirely.
type peerPlaneCounter struct {
	http.Handler
	rate, job, replicate atomic.Int64
}

func countPeerPlane(h http.Handler) *peerPlaneCounter {
	c := &peerPlaneCounter{}
	c.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/rate":
			c.rate.Add(1)
		case "/v1/job":
			c.job.Add(1)
		case "/v1/replicate":
			c.replicate.Add(1)
		}
		h.ServeHTTP(w, r)
	})
	return c
}

// TestFramedPeerPlane boots a live 2-node deployment whose members
// advertise framed listeners and proves the peer plane rides them: the
// proxy hop for a non-owned user and the replication stream both leave
// the HTTP hot paths untouched, while state still converges onto the
// replica — which also pins that the framed handshake carries the
// node-plane secret (replication would answer forbidden otherwise).
func TestFramedPeerPlane(t *testing.T) {
	engine := testEngineConfig()
	const parts = 4
	const n = 2

	mems := make([]Member, n)
	httpLns := make([]net.Listener, n)
	frameLns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpLns[i], frameLns[i] = hln, fln
		mems[i] = Member{
			ID:        fmt.Sprintf("n%d", i+1),
			Addr:      "http://" + hln.Addr().String(),
			FrameAddr: fln.Addr().String(),
		}
	}

	nodes := make([]*Node, n)
	counters := make([]*peerPlaneCounter, n)
	for i := 0; i < n; i++ {
		nd, err := New(Config{
			Self:             mems[i],
			Members:          mems,
			Partitions:       parts,
			Engine:           engine,
			ReplicateEvery:   20 * time.Millisecond,
			AntiEntropyEvery: -1,
			HeartbeatEvery:   50 * time.Millisecond,
			DeadAfter:        3,
			PeerTimeout:      2 * time.Second,
			PeerSecret:       testPeerSecret,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := server.NewServer(nd, 0)
		hs.RequireNodeSecret(testPeerSecret)
		counters[i] = countPeerPlane(hs.Handler())
		go hs.ServeFrames(frameLns[i])
		srv := &http.Server{Handler: counters[i]}
		go srv.Serve(httpLns[i])
		nd.Start()
		nodes[i] = nd
		t.Cleanup(func() { srv.Close(); hs.Close(); nd.Kill() })
	}

	// Pick a user n1 does NOT own, so rating through n1 takes the proxy
	// hop to n2, and its partition replicates back onto n1.
	m := nodes[0].Map()
	primary, _ := roles(m, mems[0].ID)
	var u core.UserID
	for cand := core.UserID(1); ; cand++ {
		if !primary[nodes[0].Cluster().Partition(cand)] {
			u = cand
			break
		}
	}
	p := nodes[0].Cluster().Partition(u)

	if err := nodes[0].Rate(tctx, u, 42, true); err != nil {
		t.Fatalf("proxied rate: %v", err)
	}
	if _, _, err := nodes[0].AppendJobPayload(tctx, u, nil, nil); err != nil {
		t.Fatalf("proxied job: %v", err)
	}

	// The rating lands on n2 and the replication tail ships it back to
	// n1's mirror of partition p.
	deadline := time.Now().Add(10 * time.Second)
	for {
		prof := nodes[0].Cluster().Engine(p).Profiles().Get(u)
		if len(prof.Liked()) == 1 && prof.Liked()[0] == 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: user %d profile %v", u, prof.Liked())
		}
		time.Sleep(10 * time.Millisecond)
	}

	for i, c := range counters {
		if got := c.rate.Load() + c.job.Load() + c.replicate.Load(); got != 0 {
			t.Fatalf("node %d served %d peer-plane HTTP requests (rate=%d job=%d replicate=%d) — the framed lane was bypassed",
				i, got, c.rate.Load(), c.job.Load(), c.replicate.Load())
		}
	}
}

// TestDisagreeingMapsAnswerNotPrimary: when two nodes' maps each name
// the other primary of every partition, a request proxied once is
// answered not_primary rather than proxied back — on HTTP peers, where
// ForwardedHeader marks the hop, and on framed peers, where the hello's
// forwarded flag does. A forwarding loop would instead run into the
// client's timeout.
func TestDisagreeingMapsAnswerNotPrimary(t *testing.T) {
	const parts = 4
	for _, framed := range []bool{false, true} {
		t.Run(fmt.Sprintf("framed=%v", framed), func(t *testing.T) {
			nodes, _ := livePair(t, 2, parts, -1, framed)
			for i, pn := range nodes {
				self, other := pn.node.Self(), nodes[1-i].node.Self()
				m := &wire.NodeMap{Epoch: 100, Partitions: parts, Nodes: []wire.NodeInfo{
					{ID: self.ID, Addr: self.Addr, FrameAddr: self.FrameAddr},
					{ID: other.ID, Addr: other.Addr, FrameAddr: other.FrameAddr, Primary: []int{0, 1, 2, 3}},
				}}
				if err := pn.node.ApplyNodeMap(tctx, m); err != nil {
					t.Fatal(err)
				}
			}
			c := client.New(nodes[0].node.Self().Addr, client.WithTimeout(2*time.Second))
			defer c.Close()
			start := time.Now()
			err := c.RateBatch(tctx, []core.Rating{{User: 1, Item: 2, Liked: true}})
			if !errors.Is(err, server.ErrNotPrimary) {
				t.Fatalf("rate through node 1 = %v after %v, want not_primary", err, time.Since(start))
			}
			t.Logf("not_primary after %v", time.Since(start))
		})
	}
}
