package node

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/server"
)

// TestBacklogCapTripsToFullResync pins the unbounded-requeue fix at the
// unit level: a partition's dirty set stops growing at the configured
// backlog and collapses into the needFull flag, and the high-water gauge
// records the peak.
func TestBacklogCapTripsToFullResync(t *testing.T) {
	self := Member{ID: "a", Addr: "http://127.0.0.1:1"}
	other := Member{ID: "b", Addr: "http://127.0.0.1:2"}
	nd, err := New(Config{
		Self:           self,
		Members:        []Member{self, other},
		Partitions:     2,
		Engine:         testEngineConfig(),
		HeartbeatEvery: -1,
		ReplicateEvery: -1,
		ReplBacklog:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	primary, _ := roles(nd.Map(), "a")
	var p int
	for pp := range primary {
		p = pp
	}
	for u := core.UserID(1); u <= 100; u++ {
		nd.repl.markDirty(p, u)
	}
	if lag, _ := nd.repl.lag(); lag > 8 {
		t.Fatalf("dirty set grew to %d past cap 8", lag)
	}
	// Past the trip the set is empty — "re-ship everything" replaced it.
	if lag, _ := nd.repl.lag(); lag != 0 {
		t.Fatalf("dirty set holds %d users after the backlog tripped, want 0 (collapsed into needFull)", lag)
	}
	if !nd.repl.needsFull(p) {
		t.Fatal("needFull not set after the backlog cap tripped")
	}
	if hw := nd.repl.backlogHighWater(); hw != 8 {
		t.Fatalf("backlog high-water = %d, want 8 (the cap)", hw)
	}
	if got := nd.Stats()["replica_backlog_users"]; got != int64(8) {
		t.Fatalf("stats replica_backlog_users = %v, want 8", got)
	}
	// requeue is capped identically (the failed-ship path).
	users := make([]core.UserID, 0, 100)
	for u := core.UserID(200); u < 300; u++ {
		users = append(users, u)
	}
	nd.repl.requeue(p, users)
	if lag, _ := nd.repl.lag(); lag > 8 {
		t.Fatalf("requeue grew the dirty set to %d past cap 8", lag)
	}
}

// TestLongDeadMirrorRecovers is the end-to-end leg: a mirror stays dead
// long enough for its primary's backlog to blow past the cap, then
// comes back — the primary's memory stayed bounded the whole time, and
// the full re-ship (not the dropped dirty set) converges the mirror to
// every acknowledged rating.
func TestLongDeadMirrorRecovers(t *testing.T) {
	const parts = 4
	const backlog = 8
	cfg := testEngineConfig()

	// b's HTTP front door flips between dead (typed 500) and serving the
	// real node — a deterministic stand-in for a crashed-then-restarted
	// process at a stable address.
	var mirrorUp atomic.Bool
	var bHandler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !mirrorUp.Load() {
			http.Error(w, "mirror down", http.StatusInternalServerError)
			return
		}
		bHandler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	memA := Member{ID: "a", Addr: "http://127.0.0.1:1"}
	memB := Member{ID: "b", Addr: ts.URL}
	mk := func(self Member) *Node {
		nd, err := New(Config{
			Self:           self,
			Members:        []Member{memA, memB},
			Partitions:     parts,
			Engine:         cfg,
			HeartbeatEvery: -1,
			ReplicateEvery: -1,
			ReplBacklog:    backlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	a, b := mk(memA), mk(memB)
	bHandler = server.NewServer(b, 0).Handler()

	// Rate far more distinct users than the cap on a's primary
	// partitions while the mirror is dead. The sync replication leg
	// fails each time and requeues into the capped backlog.
	primary, _ := roles(a.Map(), "a")
	rated := map[core.UserID]core.ItemID{}
	u := core.UserID(0)
	for len(rated) < 10*backlog {
		u++
		if !primary[a.Cluster().Partition(u)] {
			continue
		}
		item := core.ItemID(uint32(u) + 1000)
		if err := a.Rate(tctx, u, item, true); err != nil {
			t.Fatalf("rate user %d with mirror dead: %v", u, err)
		}
		rated[u] = item
	}
	if lag, _ := a.repl.lag(); lag > int64(backlog*parts) {
		t.Fatalf("backlog grew to %d users with the mirror dead; cap is %d per partition over %d partitions",
			lag, backlog, parts)
	}
	if hw := a.repl.backlogHighWater(); hw <= 0 {
		t.Fatal("backlog high-water gauge never moved")
	}

	// Mirror recovers; one async tail pass runs the full re-ships.
	mirrorUp.Store(true)
	a.repl.flushAll(tctx)

	for uu, item := range rated {
		p := a.Cluster().Partition(uu)
		prof := b.Cluster().Engine(p).Profiles().Get(uu)
		found := false
		for _, it := range prof.Liked() {
			if it == item {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("user %d item %d missing on the recovered mirror (partition %d): liked=%v",
				uu, item, p, prof.Liked())
		}
	}
	if lag, _ := a.repl.lag(); lag != 0 {
		t.Fatalf("backlog still holds %d users after the mirror recovered and flushed", lag)
	}
}
