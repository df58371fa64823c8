package node

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec/client"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// pairNode is one live member of an in-process framed deployment.
type pairNode struct {
	node *Node
	hs   *server.HTTPServer
	stop func() // closes the listeners and kills the node
}

// framedPair boots n members on loopback whose peer plane rides framed
// connections. Heartbeats and anti-entropy are off; replicateEvery < 0
// also parks the async tail, so only the synchronous leg ships.
// restart(i) kills member i and boots a fresh process image of it on
// the same two addresses.
func framedPair(tb testing.TB, n, partitions int, replicateEvery time.Duration) (nodes []*pairNode, restart func(i int)) {
	tb.Helper()
	listen := func(addr string) net.Listener {
		// A restart re-binds the address its predecessor just released;
		// give the kernel a moment if it is not free yet.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				return ln
			}
			if time.Now().After(deadline) {
				tb.Fatal(err)
			}
		}
	}
	mems := make([]Member, n)
	lns := make([][2]net.Listener, n)
	for i := range mems {
		lns[i] = [2]net.Listener{listen("127.0.0.1:0"), listen("127.0.0.1:0")}
		mems[i] = Member{
			ID:        fmt.Sprintf("n%d", i+1),
			Addr:      "http://" + lns[i][0].Addr().String(),
			FrameAddr: lns[i][1].Addr().String(),
		}
	}
	boot := func(i int, hln, fln net.Listener) *pairNode {
		nd, err := New(Config{
			Self:             mems[i],
			Members:          mems,
			Partitions:       partitions,
			Engine:           testEngineConfig(),
			ReplicateEvery:   replicateEvery,
			AntiEntropyEvery: -1,
			HeartbeatEvery:   -1,
			PeerTimeout:      10 * time.Second, // a loaded -race run must not time a shipment out
			PeerSecret:       testPeerSecret,
		})
		if err != nil {
			tb.Fatal(err)
		}
		hs := server.NewServer(nd, 0)
		hs.RequireNodeSecret(testPeerSecret)
		srv := &http.Server{Handler: hs.Handler()}
		go srv.Serve(hln)
		go hs.ServeFrames(fln)
		nd.Start()
		return &pairNode{node: nd, hs: hs, stop: func() { srv.Close(); fln.Close(); hs.Close(); nd.Kill() }}
	}
	nodes = make([]*pairNode, n)
	for i := range nodes {
		nodes[i] = boot(i, lns[i][0], lns[i][1])
	}
	tb.Cleanup(func() {
		for _, pn := range nodes {
			pn.stop()
		}
	})
	return nodes, func(i int) {
		nodes[i].stop()
		nodes[i] = boot(i, listen(mems[i].Addr[len("http://"):]), listen(mems[i].FrameAddr))
	}
}

// opRatings is a deterministic 128-rating op over users spread across
// every partition, the shape the benchmark's ingest workloads send.
func opRatings(op int) []core.Rating {
	rs := make([]core.Rating, 128)
	for i := range rs {
		rs[i] = core.Rating{
			User:  core.UserID(1 + (op*31+i*7)%2000),
			Item:  core.ItemID(1 + (op*128+i)%48),
			Liked: (op+i)%3 != 0,
		}
	}
	return rs
}

// BenchmarkNodeRateBatchFramed prices one replicated, half-proxied
// 128-rating op through node 1 of an in-process framed pair.
func BenchmarkNodeRateBatchFramed(b *testing.B) {
	nodes, _ := framedPair(b, 2, 8, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nodes[0].node.RateBatch(tctx, opRatings(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- mirror ingest: the stream's invariants, case by case ----

// shipment is one step of an ingest script: a batch handed to the
// mirror's Replicate and the answer it must give.
type shipment struct {
	name    string
	b       wire.ReplBatch
	applied int
	gap     bool
}

func delta(epoch, seq uint64, rs ...wire.RatingMsg) wire.ReplBatch {
	return wire.ReplBatch{Epoch: epoch, Seq: seq, Ratings: rs}
}

func state(epoch, seq uint64, full bool, us ...wire.ReplUser) wire.ReplBatch {
	return wire.ReplBatch{Epoch: epoch, Seq: seq, Full: full, Users: us}
}

// TestMirrorIngestTable drives one mirrored partition through every
// delivery pattern the stream must survive and checks, shipment by
// shipment, what was applied, what was acked as a no-op, what answered
// gap — and the profile the mirror ends up with.
func TestMirrorIngestTable(t *testing.T) {
	cfg := testEngineConfig()
	const parts = 4
	probe := mirrorNode(t, cfg, parts)
	_, mirrored := roles(probe.Map(), probe.Self().ID)
	var u uint32
	for cand := core.UserID(1); u == 0; cand++ {
		if mirrored[probe.Cluster().Partition(cand)] {
			u = uint32(cand)
		}
	}
	p := probe.Cluster().Partition(core.UserID(u))
	like := func(item uint32) wire.RatingMsg { return wire.RatingMsg{UID: u, Item: item, Liked: true} }
	dislike := func(item uint32) wire.RatingMsg { return wire.RatingMsg{UID: u, Item: item} }

	cases := []struct {
		name  string
		steps []shipment
		want  string // final profile of u
	}{
		{"in order", []shipment{
			{"seq 1", delta(1, 1, like(9)), 1, false},
			{"seq 2", delta(1, 2, like(10), dislike(11)), 2, false},
		}, "liked=[i9 i10] disliked=[i11]"},
		{"duplicate is acked, not re-applied", []shipment{
			{"seq 1", delta(1, 1, like(9)), 1, false},
			{"seq 2 flips it", delta(1, 2, dislike(9)), 1, false},
			{"seq 1 again", delta(1, 1, like(9)), 0, false},
			{"seq 2 again", delta(1, 2, dislike(9)), 0, false},
		}, "liked=[] disliked=[i9]"},
		{"reordered: the early one gaps, then both apply in order", []shipment{
			{"seq 2 first", delta(1, 2, dislike(9)), 0, true},
			{"seq 1", delta(1, 1, like(9)), 1, false},
			{"seq 2", delta(1, 2, dislike(9)), 1, false},
		}, "liked=[] disliked=[i9]"},
		{"dropped-then-next gaps until the whole re-ship re-bases the stream", []shipment{
			{"seq 1", delta(1, 1, like(9)), 1, false},
			{"seq 3 (2 was lost)", delta(1, 3, like(11)), 0, true},
			{"seq 4 still gaps", delta(1, 4, like(12)), 0, true},
			{"full re-ship at 4", state(1, 4, true, wire.ReplUser{UID: u, Liked: []uint32{9, 10, 11, 12}}), 1, false},
			{"seq 5", delta(1, 5, dislike(9)), 1, false},
		}, "liked=[i10 i11 i12] disliked=[i9]"},
		{"a restarted mirror gaps mid-stream instead of adopting it", []shipment{
			{"seq 57 on an empty mirror", delta(1, 57, like(9)), 0, true},
		}, "liked=[] disliked=[]"},
		{"stale epoch is acked as a no-op, a new epoch continues the stream at the next seq", []shipment{
			{"full re-ship at (2, 5)", state(2, 5, true, wire.ReplUser{UID: u, Liked: []uint32{9}}), 1, false},
			{"straggler of epoch 1", delta(1, 6, dislike(9)), 0, false},
			{"seq 6 of epoch 2", delta(2, 6, like(10)), 1, false},
			{"seq 7 under epoch 3: the map moved, the pair did not", delta(3, 7, like(11)), 1, false},
			{"seq 7 again", delta(3, 7, like(11)), 0, false},
			{"seq 9 of epoch 4 skips one", delta(4, 9, like(12)), 0, true},
		}, "liked=[i9 i10 i11] disliked=[]"},
		{"whole-state batches interleave without moving the stream", []shipment{
			{"seq 1", delta(1, 1, like(9)), 1, false},
			// The benchmark's nodeProbe ships snapshots at stamps of its own.
			{"snapshot at an arbitrary stamp installs", state(1, 1<<40, false, wire.ReplUser{UID: u, Liked: []uint32{9, 20}}), 1, false},
			{"seq 2 still in order", delta(1, 2, like(10)), 1, false},
			{"seq 3", delta(1, 3, like(11)), 1, false},
			{"snapshot older than u's last delta is dropped", state(1, 2, false, wire.ReplUser{UID: u, Liked: []uint32{9}}), 0, false},
			{"snapshot at u's last delta installs", state(1, 3, false, wire.ReplUser{UID: u, Liked: []uint32{9, 10, 11, 20}, Recs: []uint32{7}}), 1, false},
		}, "liked=[i9 i10 i11 i20] disliked=[]"},
		{"mixed batch: records install, ratings take their place in the stream", []shipment{
			{"seq 1 with a snapshot", wire.ReplBatch{Epoch: 1, Seq: 1,
				Users:   []wire.ReplUser{{UID: u, Liked: []uint32{5}}},
				Ratings: []wire.RatingMsg{like(9)}}, 2, false},
			{"seq 3 with a snapshot gaps but installs", wire.ReplBatch{Epoch: 1, Seq: 3,
				Users:   []wire.ReplUser{{UID: u, Liked: []uint32{5, 9, 10}}},
				Ratings: []wire.RatingMsg{like(11)}}, 1, true},
		}, "liked=[i5 i9 i10] disliked=[]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nd := mirrorNode(t, cfg, parts)
			for _, s := range tc.steps {
				b := s.b
				b.Partition = p
				ack, err := nd.Replicate(tctx, &b)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if ack.Applied != s.applied || ack.Gap != s.gap || ack.Seq != b.Seq {
					t.Fatalf("%s: ack applied=%d gap=%v seq=%d, want applied=%d gap=%v seq=%d",
						s.name, ack.Applied, ack.Gap, ack.Seq, s.applied, s.gap, b.Seq)
				}
			}
			if got := profileString(nd.Cluster().Engine(p), core.UserID(u)); got != tc.want {
				t.Fatalf("final profile %s, want %s", got, tc.want)
			}
		})
	}

	// A primary is no stream's mirror: deltas answer gap, and the
	// whole-state form they fall back to merges destination-wins.
	owned, _ := roles(probe.Map(), probe.Self().ID)
	for q := range owned {
		ack, err := probe.Replicate(tctx, &wire.ReplBatch{Epoch: 1, Partition: q, Seq: 1, Ratings: []wire.RatingMsg{like(9)}})
		if err != nil || !ack.Gap || ack.Applied != 0 {
			t.Fatalf("delta to the partition's primary: ack %+v err %v, want gap", ack, err)
		}
		break
	}
}

// ---- live pair: convergence, budget, restart ----

// mirrorsEqual reports the first difference between the profiles of
// every partition's primary and those of its mirror, "" when none.
func mirrorsEqual(nodes []*pairNode) string {
	m := nodes[0].node.Map()
	byID := map[string]*Node{}
	for _, pn := range nodes {
		byID[pn.node.Self().ID] = pn.node
	}
	for p := 0; p < m.Partitions; p++ {
		pr, rep := byID[m.Primary(p).ID].Cluster().Engine(p), byID[m.Replica(p).ID].Cluster().Engine(p)
		users := pr.Profiles().Users()
		if n := len(rep.Profiles().Users()); n != len(users) {
			return fmt.Sprintf("partition %d: primary knows %d users, mirror %d", p, len(users), n)
		}
		for _, u := range users {
			if a, b := profileString(pr, u), profileString(rep, u); a != b {
				return fmt.Sprintf("partition %d user %d: primary %s, mirror %s", p, u, a, b)
			}
		}
	}
	return ""
}

// TestStreamConvergesUnderConflictingWriters is the stream's order
// invariant under -race: many goroutines push overlapping users through
// node 1, flipping like↔dislike on the same (user, item) pairs, with
// only the synchronous leg shipping (no tail, no anti-entropy to paper
// over a reordering). Once they return, every partition's mirror holds
// exactly its primary's profiles, item for item, and nothing gapped.
func TestStreamConvergesUnderConflictingWriters(t *testing.T) {
	nodes, _ := framedPair(t, 2, 8, -1)
	const writers, ops = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < ops; op++ {
				rs := make([]core.Rating, 32)
				for i := range rs {
					rs[i] = core.Rating{
						User:  core.UserID(1 + rng.Intn(40)),
						Item:  core.ItemID(1 + rng.Intn(6)),
						Liked: rng.Intn(2) == 0,
					}
				}
				if err := nodes[0].node.RateBatch(tctx, rs); err != nil {
					t.Errorf("writer %d op %d: %v", w, op, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if diff := mirrorsEqual(nodes); diff != "" {
		t.Fatalf("after quiescence: %s", diff)
	}
	for i, pn := range nodes {
		st := pn.node.Stats()
		if st["repl_gaps_total"] != int64(0) || st["repl_full_ships_total"] != int64(0) || st["replica_lag_seq"] != int64(0) {
			t.Fatalf("node %d: gaps=%v full_ships=%v lag_seq=%v on a clean run, want 0/0/0",
				i+1, st["repl_gaps_total"], st["repl_full_ships_total"], st["replica_lag_seq"])
		}
	}
}

// TestEpochBumpKeepsStreamInSequence: a map change that leaves a
// partition's primary and replica where they were (a membership change
// elsewhere in a bigger cluster) moves the epoch under a live stream. The
// next shipment must continue it — whichever member learns the new map
// first — not gap and cost every partition a whole re-ship.
func TestEpochBumpKeepsStreamInSequence(t *testing.T) {
	const parts = 4
	nodes, _ := framedPair(t, 2, parts, -1)
	n1 := nodes[0].node
	write := func(op int) {
		t.Helper()
		if err := n1.RateBatch(tctx, opRatings(op)); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	for i := range nodes {
		m := BuildMap(n1.cfg.Members, parts, uint64(2+i))
		for _, pn := range nodes[:i+1] { // node 1 is an epoch ahead of its peer for one op
			pn.node.applyMap(m)
		}
		write(1 + i)
	}
	if diff := mirrorsEqual(nodes); diff != "" {
		t.Fatal(diff)
	}
	for i, pn := range nodes {
		if gaps, full := pn.node.repl.gaps.Load(), pn.node.repl.fullShips.Load(); gaps != 0 || full != 0 {
			t.Fatalf("node %d: %d gaps and %d whole re-ships across epoch bumps that moved no partition, want none", i+1, gaps, full)
		}
	}
}

// TestGapIsRepairedBeforeTheAck: with the async tail parked, so nothing
// but the op itself can repair anything, a write through a primary whose
// mirror has lost the stream (node 2 restarted empty) returns with the
// partition re-shipped whole — the acknowledged ratings, and everything
// before them, are on the mirror.
func TestGapIsRepairedBeforeTheAck(t *testing.T) {
	nodes, restart := framedPair(t, 2, 4, -1)
	n1 := nodes[0].node
	primary, _ := roles(n1.Map(), n1.Self().ID)
	mine := func(item core.ItemID) []core.Rating { // one rating for each of 40 users node 1 is primary of
		rs := make([]core.Rating, 0, 40)
		for u := core.UserID(1); len(rs) < cap(rs); u++ {
			if primary[n1.Cluster().Partition(u)] {
				rs = append(rs, core.Rating{User: u, Item: item, Liked: true})
			}
		}
		return rs
	}
	for item := core.ItemID(1); item <= 2; item++ {
		if err := n1.RateBatch(tctx, mine(item)); err != nil {
			t.Fatal(err)
		}
	}
	restart(1)
	if err := n1.RateBatch(tctx, mine(3)); err != nil {
		t.Fatal(err)
	}
	for p := range primary {
		pr, rep := n1.Cluster().Engine(p), nodes[1].node.Cluster().Engine(p)
		for _, u := range pr.Profiles().Users() {
			if a, b := profileString(pr, u), profileString(rep, u); a != b {
				t.Fatalf("partition %d user %d when the gapping write returned: primary %s, mirror %s", p, u, a, b)
			}
		}
	}
	if gaps, full := n1.repl.gaps.Load(), n1.repl.fullShips.Load(); gaps != int64(len(primary)) || full != gaps {
		t.Fatalf("%d gaps and %d whole re-ships for %d primary partitions, want one each", gaps, full, len(primary))
	}
}

// TestGapThatAReshipCannotRepairIsLeftToTheTail: node 2 believes it is
// primary of everything (node 1's map is stale), so it answers gap to
// node 1's deltas whatever is re-shipped to it. Node 1 re-ships each
// partition once on the spot, sees the next delta gap all the same, and
// leaves the flag to the tail instead of exporting the partition per op.
func TestGapThatAReshipCannotRepairIsLeftToTheTail(t *testing.T) {
	nodes, _ := framedPair(t, 2, 4, -1)
	n1, n2 := nodes[0].node, nodes[1].node
	primary, _ := roles(n1.Map(), n1.Self().ID)
	n2.applyMap(BuildMap([]Member{n2.Self()}, 4, 2))
	for item := core.ItemID(1); item <= 4; item++ {
		rs := make([]core.Rating, 0, 40)
		for u := core.UserID(1); len(rs) < cap(rs); u++ {
			if primary[n1.Cluster().Partition(u)] {
				rs = append(rs, core.Rating{User: u, Item: item, Liked: true})
			}
		}
		if err := n1.RateBatch(tctx, rs); err != nil {
			t.Fatalf("write against a gapping destination: %v", err)
		}
	}
	if full, want := n1.repl.fullShips.Load(), int64(len(primary)); full != want {
		t.Fatalf("%d whole re-ships over 4 ops on %d partitions whose gap no re-ship repairs, want one each", full, want)
	}
	for p := range primary {
		if !n1.repl.needsFull(p) {
			t.Fatalf("partition %d: the unrepaired gap is not left armed for the tail", p)
		}
	}
}

// TestAntiEntropyStaysOffTheAckPath: a pass over partitions whose streams
// are in sequence never takes a send slot (held here by the test, so the
// pass would hang), re-bases nothing, and still delivers whole state.
func TestAntiEntropyStaysOffTheAckPath(t *testing.T) {
	nodes, _ := framedPair(t, 2, 4, -1)
	n1 := nodes[0].node
	if err := n1.RateBatch(tctx, opRatings(0)); err != nil {
		t.Fatal(err)
	}
	// Something only whole state carries: a user the mirror has lost.
	primary, _ := roles(n1.Map(), n1.Self().ID)
	var lost core.UserID
	for _, r := range opRatings(0) {
		if primary[n1.Cluster().Partition(r.User)] {
			lost = r.User
			break
		}
	}
	p := n1.Cluster().Partition(lost)
	nodes[1].node.Cluster().Engine(p).ImportUsersSnapshot([]server.UserState{{Profile: core.NewProfile(lost)}})
	for q := range n1.repl.locks {
		n1.repl.locks[q].send.Lock()
	}
	n1.repl.fullSyncAll(tctx)
	for q := range n1.repl.locks {
		n1.repl.locks[q].send.Unlock()
	}
	if diff := mirrorsEqual(nodes); diff != "" {
		t.Fatalf("after the pass: %s", diff)
	}
	if full := n1.repl.fullShips.Load(); full != 0 {
		t.Fatalf("anti-entropy over in-sequence streams made %d Full re-ships, want 0", full)
	}
	if err := n1.RateBatch(tctx, opRatings(1)); err != nil {
		t.Fatal(err)
	}
	if gaps := n1.repl.gaps.Load(); gaps != 0 {
		t.Fatalf("the stream gapped %d times after an anti-entropy pass", gaps)
	}
}

// TestTailRequeuesSnapshotTheGateDropped: a dirty user's snapshot that a
// delta overtakes on the way is turned down by the mirror's gate; the
// tail must keep the user dirty and deliver the snapshot — the only
// carrier of the KNN row and recs — at a newer stamp.
func TestTailRequeuesSnapshotTheGateDropped(t *testing.T) {
	nodes, _ := framedPair(t, 2, 4, -1)
	n1, n2 := nodes[0].node, nodes[1].node
	primary, _ := roles(n1.Map(), n1.Self().ID)
	u := core.UserID(1)
	for !primary[n1.Cluster().Partition(u)] {
		u++
	}
	p := n1.Cluster().Partition(u)
	if err := n1.Rate(tctx, u, 1, true); err != nil {
		t.Fatal(err)
	}
	// The race, replayed by hand: the delta after the snapshot's stamp
	// reaches the mirror first.
	next := wire.ReplBatch{Epoch: n1.Map().Epoch, Partition: p, Seq: n1.repl.stamp(p) + 1,
		Ratings: []wire.RatingMsg{{UID: uint32(u), Item: 2, Liked: true}}}
	if ack, err := n2.Replicate(tctx, &next); err != nil || ack.Applied != 1 {
		t.Fatalf("delta ahead of the snapshot: ack %+v err %v", ack, err)
	}
	n1.repl.markDirty(p, u)
	n1.repl.flushAll(tctx)
	if lag, _ := n1.repl.lag(); lag != 1 {
		t.Fatalf("lag %d after the gate dropped the snapshot, want the user still dirty", lag)
	}
	if err := n1.Rate(tctx, u, 2, true); err != nil { // the primary's stream reaches that delta
		t.Fatal(err)
	}
	n1.repl.flushAll(tctx)
	if lag, _ := n1.repl.lag(); lag != 0 {
		t.Fatalf("lag %d: the re-exported snapshot was not installed", lag)
	}
	if diff := mirrorsEqual(nodes); diff != "" {
		t.Fatal(diff)
	}
}

// frameBytes reads frame_bytes_total off a member's /stats.
func frameBytes(t *testing.T, pn *pairNode) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	pn.hs.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		FrameBytes int64 `json:"frame_bytes_total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return stats.FrameBytes
}

// TestReplicaLegWireBudget pins what one 128-rating batch costs on the
// replica leg. Every count here repeats exactly, so a regression to
// whole-state shipping — or to a second shipment per partition — fails
// here, not only in the benchmark's server_io_bytes_per_op.
func TestReplicaLegWireBudget(t *testing.T) {
	const parts = 8
	nodes, _ := framedPair(t, 2, parts, -1)
	n1 := nodes[0].node
	primary, _ := roles(n1.Map(), n1.Self().ID)

	// 128 ratings for users node 1 is primary of, so node 2's framed
	// listener sees the replica leg and nothing else (no proxy hop).
	batch := func(round int) []core.Rating {
		rs := make([]core.Rating, 0, 128)
		for u := core.UserID(1); len(rs) < cap(rs); u++ {
			if primary[n1.Cluster().Partition(u)] {
				rs = append(rs, core.Rating{User: u, Item: core.ItemID(100*round + len(rs)%7), Liked: len(rs)%2 == 0})
			}
		}
		return rs
	}
	if err := n1.RateBatch(tctx, batch(0)); err != nil { // dials and handshakes the peer connection
		t.Fatal(err)
	}
	seqs := func() (sum uint64) {
		for p := range primary {
			sum += n1.repl.stamp(p)
		}
		return sum
	}
	bytes0, seq0, deltas0 := frameBytes(t, nodes[1]), seqs(), n1.repl.deltaRatings.Load()

	rs := batch(1)
	touched := map[int]bool{}
	for _, r := range rs {
		touched[n1.Cluster().Partition(r.User)] = true
	}
	if err := n1.RateBatch(tctx, rs); err != nil {
		t.Fatal(err)
	}
	if got := seqs() - seq0; got != uint64(len(touched)) {
		t.Fatalf("%d delta shipments left the primary for %d touched partitions, want one each", got, len(touched))
	}
	if got := n1.repl.deltaRatings.Load() - deltas0; got != int64(len(rs)) {
		t.Fatalf("%d ratings were acknowledged as deltas, want all %d", got, len(rs))
	}
	if full, gaps := n1.repl.fullShips.Load(), n1.repl.gaps.Load(); full != 0 || gaps != 0 {
		t.Fatalf("%d whole-state ships and %d gaps on a clean pair, want none", full, gaps)
	}
	if got := frameBytes(t, nodes[1]) - bytes0; got <= int64(9*len(rs)) || got >= 2048 {
		t.Fatalf("replica leg moved %d bytes for %d ratings (frames + acks), want within (%d, 2048)", got, len(rs), 9*len(rs))
	}
	if diff := mirrorsEqual(nodes); diff != "" {
		t.Fatal(diff)
	}
}

// TestReplicaLegAllocCap guards the allocations of one replicated
// ingest op end to end: a 32-rating batch from a framed client into
// node 1, whose non-owned half takes the proxy hop and whose owned half
// ships to its mirror before the ack. Counted process-wide, so client,
// both nodes and both connections are in it, within 250 allocations.
// Shipping whole user state instead of rating deltas costs several
// times that.
func TestReplicaLegAllocCap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, items, size = 512, 2000, 32
	nodes, _ := framedPair(t, 2, 8, -1)
	self := nodes[0].node.Self()
	c := client.New(self.Addr, client.WithTimeout(10*time.Second), client.WithFramed(self.FrameAddr))
	defer c.Close()

	// Op i carries ratings 32i … 32i+31 of one deterministic stream that
	// cycles through the population.
	batch := make([]core.Rating, size)
	op := 0
	rate := func() {
		for j := range batch {
			n := op*size + j
			batch[j] = core.Rating{
				User:  core.UserID(n%users + 1),
				Item:  core.ItemID(uint32(n*2654435761) % items),
				Liked: n%3 != 0,
			}
		}
		op++
		if err := c.RateBatch(tctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	for op < users*4/size {
		rate() // seed the population; dials both framed connections
	}
	allocs := testing.AllocsPerRun(50, rate)
	t.Logf("allocs/op: %.1f", allocs)
	if allocs > 250 {
		t.Fatalf("replicated rate batch allocates %.1f/op, want <= 250", allocs)
	}
}

// TestRestartedReplicaIsSeededByGap is the regression for the unseeded
// replica: with anti-entropy disabled, node 2 is killed and restarted
// empty. The ratings written while it was down reach it through the
// async tail, the first delta after it is back gaps, and the whole
// re-ship that answers the gap leaves its mirrors equal to the
// primary's profiles — users it was never re-sent a rating for
// included — within a few ReplicateEvery ticks. The restart also began
// a new stream on the partitions node 2 is primary of: its first
// shipments must gap on node 1's surviving mirrors (and be re-shipped),
// not pass for duplicates of the old stream's.
func TestRestartedReplicaIsSeededByGap(t *testing.T) {
	const parts = 4
	nodes, restart := framedPair(t, 2, parts, 20*time.Millisecond)
	n1 := nodes[0].node
	primary, _ := roles(n1.Map(), n1.Self().ID)
	// n ratings of item `round`, for users node 1 is (mine) or is not
	// primary of.
	batch := func(mine bool, round, n int) []core.Rating {
		rs := make([]core.Rating, 0, n)
		for u := core.UserID(1); len(rs) < n; u++ {
			if primary[n1.Cluster().Partition(u)] == mine {
				rs = append(rs, core.Rating{User: u, Item: core.ItemID(round), Liked: true})
			}
		}
		return rs
	}
	// caughtUp waits until the mirror holds every profile its primary does.
	caughtUp := func(what string, pr, mirror *Node, mine bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			diff := ""
			for p := 0; p < parts; p++ {
				if primary[p] != mine {
					continue
				}
				for _, u := range pr.Cluster().Engine(p).Profiles().Users() {
					if a, b := profileString(pr.Cluster().Engine(p), u), profileString(mirror.Cluster().Engine(p), u); a != b {
						diff = fmt.Sprintf("partition %d user %d: primary %s, mirror %s", p, u, a, b)
					}
				}
			}
			if diff == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up: %s", what, diff)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for round := 1; round <= 3; round++ { // both streams are a few shipments in
		if err := n1.RateBatch(tctx, append(batch(true, round, 200), batch(false, round, 50)...)); err != nil {
			t.Fatal(err)
		}
	}

	nodes[1].stop()
	if err := n1.RateBatch(tctx, batch(true, 4, 20)); err != nil {
		t.Fatalf("write with the replica down: %v", err)
	}
	if lag, _ := n1.repl.lag(); lag == 0 {
		t.Fatal("ratings acknowledged with the replica down are not owed to the async tail")
	}
	restart(1)
	n2 := nodes[1].node

	// One rating per partition is all the traffic the repair needs.
	if err := n1.RateBatch(tctx, batch(true, 5, 20)); err != nil {
		t.Fatal(err)
	}
	caughtUp("the restarted replica", n1, n2, true)
	if n1.repl.gaps.Load() == 0 || n1.repl.fullShips.Load() == 0 {
		t.Fatalf("gaps=%d full_ships=%d: the restarted replica was not seeded by a gap", n1.repl.gaps.Load(), n1.repl.fullShips.Load())
	}
	// The stream is back in sequence: the next batch ships as deltas.
	gaps := n1.repl.gaps.Load()
	if err := n1.RateBatch(tctx, batch(true, 6, 20)); err != nil {
		t.Fatal(err)
	}
	if got := n1.repl.gaps.Load(); got != gaps {
		t.Fatalf("the stream gapped again after the re-ship (%d → %d)", gaps, got)
	}

	// Node 2's own partitions: a new stream against mirrors that remember
	// the old one.
	if err := n1.RateBatch(tctx, batch(false, 7, 50)); err != nil {
		t.Fatal(err)
	}
	caughtUp("the restarted primary's mirror", n2, n1, false)
	if n2.repl.gaps.Load() == 0 {
		t.Fatal("the restarted primary's first shipments did not gap on the surviving mirrors")
	}
}

// TestTailKeepsDirtWithoutReplica is the regression for the lost dirt:
// while a partition has no distinct replica, a tail pass must leave its
// dirty set and its pending whole re-ship alone; the map that gives it
// a replica again flags the re-ship on its own.
func TestTailKeepsDirtWithoutReplica(t *testing.T) {
	a := Member{ID: "a", Addr: "http://127.0.0.1:1"}
	b := Member{ID: "b", Addr: "http://127.0.0.1:2"}
	nd, err := New(Config{
		Self: a, Members: []Member{a, b}, Partitions: 4, Engine: testEngineConfig(),
		HeartbeatEvery: -1, ReplicateEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	kept, taken := -1, -1 // a partition a owns from boot, and one it takes over from b
	for p, bootPrimary := 0, first(roles(nd.Map(), "a")); p < 4; p++ {
		if bootPrimary[p] {
			kept = p
		} else {
			taken = p
		}
	}
	if kept < 0 || taken < 0 {
		t.Skip("boot map gives one member every partition")
	}
	nd.applyMap(BuildMap([]Member{a}, 4, 2)) // b is gone: a owns everything, unreplicated
	nd.repl.markDirty(kept, 7)
	if !nd.repl.needsFull(taken) {
		t.Fatal("a promoted partition is not flagged to seed its next replica")
	}
	nd.repl.flushAll(tctx)
	if lag, _ := nd.repl.lag(); lag != 1 || !nd.repl.needsFull(taken) {
		t.Fatalf("a tail pass with no replica left lag=%d needFull=%v, want the dirt and the flag kept", lag, nd.repl.needsFull(taken))
	}
	nd.applyMap(BuildMap([]Member{a, b}, 4, 3)) // b is back, as the replica of what a keeps
	for p := range first(roles(nd.Map(), "a")) {
		if !nd.repl.needsFull(p) {
			t.Fatalf("partition %d got a new replica and no whole re-ship was flagged", p)
		}
	}
}

func first[A, B any](a A, _ B) A { return a }
