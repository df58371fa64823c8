package server

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

func TestProfileTableGetUnknown(t *testing.T) {
	tb := NewProfileTable()
	p := tb.Get(5)
	if p.User() != 5 || p.Size() != 0 {
		t.Fatalf("unknown user profile: %v", p)
	}
	if tb.Known(5) {
		t.Error("Get must not register users")
	}
}

func TestProfileTablePutGet(t *testing.T) {
	tb := NewProfileTable()
	p := core.NewProfile(1).WithRating(3, true)
	tb.Put(p)
	if !tb.Known(1) || tb.Len() != 1 {
		t.Fatal("Put did not register")
	}
	got := tb.Get(1)
	if !got.Equal(p) {
		t.Fatalf("Get = %v", got)
	}
}

func TestProfileTableUpdate(t *testing.T) {
	tb := NewProfileTable()
	got := tb.Update(2, func(p core.Profile) core.Profile { return p.WithRating(9, true) })
	if !got.LikedContains(9) {
		t.Fatal("update result wrong")
	}
	if !tb.Get(2).LikedContains(9) {
		t.Fatal("update not stored")
	}
	if tb.Len() != 1 {
		t.Fatal("update did not register user")
	}
	// Second update of same user must not re-register.
	tb.Update(2, func(p core.Profile) core.Profile { return p.WithRating(10, true) })
	if tb.Len() != 1 {
		t.Fatal("duplicate roster entry")
	}
}

func TestProfileTableRandomUsers(t *testing.T) {
	tb := NewProfileTable()
	for u := core.UserID(0); u < 50; u++ {
		tb.Put(core.NewProfile(u))
	}
	rng := rand.New(rand.NewSource(1))
	got := tb.RandomUsers(rng, 10, 7)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[core.UserID]bool{}
	for _, u := range got {
		if u == 7 {
			t.Fatal("excluded user drawn")
		}
		if seen[u] {
			t.Fatal("duplicate draw in one call")
		}
		seen[u] = true
	}
}

func TestProfileTableRandomUsersSmallPopulation(t *testing.T) {
	tb := NewProfileTable()
	tb.Put(core.NewProfile(1))
	rng := rand.New(rand.NewSource(1))
	// Asking for more users than exist must terminate and return what's
	// available (possibly less).
	got := tb.RandomUsers(rng, 5, 1)
	if len(got) != 0 {
		t.Fatalf("only excluded user exists, got %v", got)
	}
	if got := tb.RandomUsers(rng, 3, 99); len(got) != 1 {
		t.Fatalf("got %v, want just user 1", got)
	}
	// Empty table.
	empty := NewProfileTable()
	if got := empty.RandomUsers(rng, 3, 0); got != nil {
		t.Fatalf("empty table returned %v", got)
	}
}

func TestProfileTableRandomUsersUniformish(t *testing.T) {
	tb := NewProfileTable()
	const n = 20
	for u := core.UserID(0); u < n; u++ {
		tb.Put(core.NewProfile(u))
	}
	rng := rand.New(rand.NewSource(42))
	counts := map[core.UserID]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		for _, u := range tb.RandomUsers(rng, 1, n+1) {
			counts[u]++
		}
	}
	// Each user should get ~draws/n = 200; allow wide tolerance.
	for u := core.UserID(0); u < n; u++ {
		if counts[u] < 100 || counts[u] > 320 {
			t.Errorf("user %v drawn %d times, expected ≈200", u, counts[u])
		}
	}
}

func TestProfileTableForEachAndUsers(t *testing.T) {
	tb := NewProfileTable()
	for u := core.UserID(0); u < 10; u++ {
		tb.Put(core.NewProfile(u).WithRating(core.ItemID(u), true))
	}
	count := 0
	tb.ForEach(func(p core.Profile) {
		if !p.LikedContains(core.ItemID(p.User())) {
			t.Errorf("wrong profile for %v", p.User())
		}
		count++
	})
	if count != 10 {
		t.Fatalf("ForEach visited %d", count)
	}
	if len(tb.Users()) != 10 {
		t.Fatal("Users() wrong length")
	}
}

func TestProfileTableConcurrent(t *testing.T) {
	tb := NewProfileTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				u := core.UserID(rng.Intn(100))
				tb.Update(u, func(p core.Profile) core.Profile {
					return p.WithRating(core.ItemID(i), true)
				})
				tb.Get(u)
				tb.RandomUsers(rng, 3, u)
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() == 0 || tb.Len() > 100 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestKNNTable(t *testing.T) {
	kt := NewKNNTable()
	if kt.Get(1) != nil {
		t.Fatal("unknown user has neighbors")
	}
	kt.Put(1, []core.UserID{2, 3})
	if got := kt.Get(1); len(got) != 2 || got[0] != 2 {
		t.Fatalf("Get = %v", got)
	}
	kt.Put(1, []core.UserID{4})
	if got := kt.Get(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("overwrite failed: %v", got)
	}
	if kt.Len() != 1 {
		t.Fatalf("Len = %d", kt.Len())
	}
}

// TestKNNTableKeepsNothingOfTheCaller pins the table's copy contract:
// Put and PutIfAbsent copy the neighbours into the row, so the caller
// may reuse its slice, and Get hands out a fresh slice whose changes
// reach no row.
func TestKNNTableKeepsNothingOfTheCaller(t *testing.T) {
	kt := NewKNNTable()
	hood := []core.UserID{2, 3, 4}
	kt.Put(1, hood)
	hood[0], hood[2] = 9, 9
	if got := kt.Get(1); !slices.Equal(got, []core.UserID{2, 3, 4}) {
		t.Fatalf("after the caller changed its slice, Get = %v, want [2 3 4]", got)
	}
	other := []core.UserID{5, 6}
	if !kt.PutIfAbsent(7, other) {
		t.Fatal("PutIfAbsent refused an absent row")
	}
	other[1] = 1
	got := kt.Get(7)
	if !slices.Equal(got, []core.UserID{5, 6}) {
		t.Fatalf("after the caller changed its slice, Get = %v, want [5 6]", got)
	}
	got[0] = 1
	if again := kt.Get(7); !slices.Equal(again, []core.UserID{5, 6}) {
		t.Fatalf("a change to Get's slice reached the row: %v", again)
	}
}

func TestKNNTableConcurrent(t *testing.T) {
	kt := NewKNNTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := core.UserID(i % 64)
				kt.Put(u, []core.UserID{core.UserID(g), core.UserID(i)})
				kt.Get(u)
			}
		}(g)
	}
	wg.Wait()
	if kt.Len() != 64 {
		t.Fatalf("Len = %d", kt.Len())
	}
}

// TestRosterDoesNotGrowOnRestore pins the dedup-on-insert invariant:
// re-storing an existing user — any interleaving of Put and Update —
// never grows the dense roster, so uniform sampling stays uniform.
func TestRosterDoesNotGrowOnRestore(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		tab := NewProfileTable()
		for i := 0; i < 5; i++ {
			tab.Put(core.NewProfile(7).WithRating(core.ItemID(i), true))
			tab.Update(7, func(p core.Profile) core.Profile {
				return p.WithRating(core.ItemID(100+i), true)
			})
		}
		if got := tab.Len(); got != 1 {
			t.Fatalf("roster length = %d after re-storing one user, want 1", got)
		}
		if users := tab.Users(); len(users) != 1 || users[0] != 7 {
			t.Fatalf("roster = %v, want [7]", users)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		tab := NewProfileTable()
		const users, writersPerUser = 32, 8
		var wg sync.WaitGroup
		for u := core.UserID(1); u <= users; u++ {
			for w := 0; w < writersPerUser; w++ {
				wg.Add(1)
				go func(u core.UserID, w int) {
					defer wg.Done()
					if w%2 == 0 {
						tab.Put(core.NewProfile(u))
					} else {
						tab.Update(u, func(p core.Profile) core.Profile {
							return p.WithRating(core.ItemID(w), true)
						})
					}
				}(u, w)
			}
		}
		wg.Wait()
		if got := tab.Len(); got != users {
			t.Fatalf("roster length = %d, want %d (duplicates slipped in)", got, users)
		}
		seen := make(map[core.UserID]bool)
		for _, u := range tab.Users() {
			if seen[u] {
				t.Fatalf("duplicate roster entry for user %d", u)
			}
			seen[u] = true
		}
	})
}

// TestSlotProfileVersionNeverRegresses races RateBatch writers and KNN
// fold-ins against readers of the same slots: a rating replaces the
// profile under the slot's mutex, so no reader may ever observe a user's
// profile version go backwards, and no rating is lost.
func TestSlotProfileVersionNeverRegresses(t *testing.T) {
	e := NewEngine(DefaultConfig())
	defer e.Close()
	ctx := context.Background()
	const users, writers, batches = 16, 4, 200
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			bufs := wire.GetPayloadBufs()
			defer wire.PutPayloadBufs(bufs)
			last := make([]uint64, users+1)
			for i := 0; !stop.Load(); i++ {
				u := core.UserID(i%users + 1)
				v := e.Profiles().Get(u).Version()
				if v < last[u] {
					t.Errorf("reader %d: user %d version %d after %d", r, u, v, last[u])
					return
				}
				last[u] = v
				if r == 0 {
					j, g, err := e.AppendJobPayload(ctx, u, bufs.JSON[:0], bufs.Gz[:0])
					if err != nil {
						t.Error(err)
						return
					}
					bufs.JSON, bufs.Gz = j, g
				}
			}
		}(r)
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			batch := make([]core.Rating, users)
			for b := 0; b < batches; b++ {
				for i := range batch {
					// Each writer rates its own items, so every rating
					// adds one item and the final sizes are exact.
					batch[i] = core.Rating{User: core.UserID(i + 1), Item: core.ItemID(w*batches + b), Liked: b%2 == 0}
				}
				if err := e.RateBatch(ctx, batch); err != nil {
					t.Error(err)
					return
				}
				u := core.UserID(b%users + 1)
				e.KNN().Put(u, []core.UserID{core.UserID((b+w)%users + 1), core.UserID((b+w+1)%users + 1)})
			}
		}(w)
	}
	writersWG.Wait()
	stop.Store(true)
	readers.Wait()
	for u := core.UserID(1); u <= users; u++ {
		if p := e.Profiles().Get(u); p.Size() != writers*batches || p.Version() != writers*batches {
			t.Fatalf("user %d: size %d version %d, want %d: a racing write was lost", u, p.Size(), p.Version(), writers*batches)
		}
	}
}
