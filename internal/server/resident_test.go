package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// residentCounts is one measurement: users, and the live heap the engine
// and the presence map hold for them.
type residentCounts struct {
	users              int
	engineB, presenceB int64
}

// liveHeap returns the heap still reachable after two collections; the
// second empties sync.Pool's victim cache, so no pooled scratch counts.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// measureResident ingests a population generated from cfg into an engine
// with the scheduler on, takes every user through one job → widget →
// result round and a presence touch, and measures the live heap that
// adds over an empty engine and an empty presence map. The lease TTL is
// an hour so nothing expires inside the window; the scheduler is swept
// by hand before the measurement, so the sweeper's timer cannot decide
// what is retained.
func measureResident(t *testing.T, cfg dataset.GenConfig) residentCounts {
	t.Helper()
	tr, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratings := make([]core.Rating, 0, len(tr.Events))
	var users []core.UserID
	known := make(map[core.UserID]bool)
	for _, ev := range dataset.Binarize(tr) {
		r := ev.Rating()
		ratings = append(ratings, r)
		if !known[r.User] {
			known[r.User] = true
			users = append(users, r.User)
		}
	}
	ctx := context.Background()
	ecfg := DefaultConfig()
	ecfg.LeaseTTL = time.Hour

	e := NewEngine(ecfg)
	defer e.Close()
	p := newPresence()
	h1 := liveHeap()

	if err := e.RateBatch(ctx, ratings); err != nil {
		t.Fatal(err)
	}
	w := widget.New()
	for _, u := range users {
		body, err := e.AppendJob(ctx, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		job, err := wire.DecodeJob(body)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := w.Execute(job)
		if _, err := e.ApplyResult(ctx, res); err != nil {
			t.Fatal(err)
		}
		p.Touch(u)
	}
	w = nil
	e.Scheduler().SweepNow()
	h2 := liveHeap()
	tracked := len(p.last)
	p = nil
	h3 := liveHeap()

	var lists int64
	for _, u := range users {
		lists += 4 * int64(e.Profiles().Get(u).Size())
	}
	runtime.KeepAlive(ratings)
	runtime.KeepAlive(tr)
	if tracked != len(users) {
		t.Fatalf("presence tracks %d users, want %d", tracked, len(users))
	}
	return residentCounts{
		users:     len(users),
		engineB:   h3 - h1 - lists,
		presenceB: h2 - h3,
	}
}

// TestResidentBytesPerUser is the tier-1 guard on memory per user (the
// paper's §5.4–5.5 claim is users per server): on TestJobWireBudget's
// two populations, a user warmed by one refresh round stays within a
// budget of live heap in the engine — slot, KNN row, scheduler record,
// cached job fragment, retained recommendations and index entries,
// beyond the bytes of her profile's item lists — and within another in
// the front-end's presence map. Dense profiles cost more because their
// cached fragments are longer.
//
// The budgets sit about 20 B over the measured engine cost and 9 B over
// the presence cost, below what each of four layouts saves: KNN rows of
// slot indices alone (a row keeping its users measured +72 B/user), a
// scheduler record and lease without time.Time (+41 to +45 B/user),
// presence as int64 offsets (+28 to +38 B/user) and, on the Digg
// population, whose recommendation store holds more users, an
// array-backed recommendation LRU (+25 B/user). Measured: dense ML1
// 753.9 and 30.5 B/user (871.4 and 59.1 before those layouts), sparse
// Digg 485.0 and 31.3 (622.2 and 69.4).
func TestResidentBytesPerUser(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate the heap")
	}
	for _, tc := range []struct {
		name             string
		cfg              dataset.GenConfig
		engine, presence float64 // budgets, B/user
	}{
		{"dense ML1", dataset.Scaled(dataset.ML1Config(), 1.0/3), 775, 40},
		{"sparse Digg", dataset.Scaled(dataset.DiggConfig(), 1.0/50), 505, 40},
	} {
		c := measureResident(t, tc.cfg)
		engine := float64(c.engineB) / float64(c.users)
		pres := float64(c.presenceB) / float64(c.users)
		t.Logf("%s: %d users: engine %.1f B/user beyond profile lists, presence %.1f B/user", tc.name, c.users, engine, pres)
		if engine > tc.engine {
			t.Errorf("%s: a warmed user costs the engine %.1f B, want ≤ %.0f", tc.name, engine, tc.engine)
		}
		if pres > tc.presence {
			t.Errorf("%s: a user costs the presence map %.1f B, want ≤ %.0f", tc.name, pres, tc.presence)
		}
	}
}
