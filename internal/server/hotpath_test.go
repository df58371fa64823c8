package server

import (
	"context"
	"slices"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// This file certifies the zero-allocation hot path: the slot-table read
// path (tables.go) plus pooled encode buffers keep a warmed job assembly
// and encode within a small constant number of allocations, whatever the
// candidate count.

// hotPathEngine builds a churned engine: users ratings and a converged-ish
// KNN graph so candidate sets exercise one-hop, two-hop and random picks.
func hotPathEngine(t testing.TB, cfg Config, users, items int) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	ctx := context.Background()
	for u := 1; u <= users; u++ {
		for j := 0; j < 8; j++ {
			item := core.ItemID((u*7 + j*13) % items)
			if err := e.Rate(ctx, core.UserID(u), item, j%3 != 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Seed KNN rows directly (deterministic, no widget round-trip): each
	// user points at the next few users, giving two-hop fan-out.
	for u := 1; u <= users; u++ {
		var hood []core.UserID
		for d := 1; d <= cfg.K; d++ {
			hood = append(hood, core.UserID((u+d-1)%users+1))
		}
		e.KNN().Put(core.UserID(u), hood)
	}
	return e
}

// measureJobPayloadAllocs reports allocations per AppendJobPayload call
// with pooled buffers after a warmup pass that populates the pools and
// the serialized-profile cache.
func measureJobPayloadAllocs(t testing.TB, e *Engine, users, rounds int) float64 {
	t.Helper()
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	run := func() {
		for u := 1; u <= users; u++ {
			j, g, err := e.AppendJobPayload(context.Background(), core.UserID(u), bufs.JSON[:0], bufs.Gz[:0])
			if err != nil {
				t.Fatal(err)
			}
			bufs.JSON, bufs.Gz = j, g
		}
	}
	run() // warm pools, caches and buffer capacities
	allocs := testing.AllocsPerRun(rounds, run)
	return allocs / float64(users)
}

// TestHotPathAllocCap is the deterministic allocation guard on the
// serving path: once pools and fragment cells are warm, assembling and
// encoding one job (format 3 and its /online gzip) stays within 4
// allocations.
func TestHotPathAllocCap(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops a fraction of Puts under the race detector, so
		// allocation counts say nothing about the build.
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, items = 256, 500
	e := hotPathEngine(t, DefaultConfig(), users, items)
	defer e.Close()
	allocs := measureJobPayloadAllocs(t, e, users, 5)
	t.Logf("allocs/op: %.2f", allocs)
	if allocs > 4 {
		t.Fatalf("hot path allocates %.2f/op, want <= 4", allocs)
	}
}

// TestServingMixAllocCap guards the serving mix as a whole: seven pooled
// job payloads for every full round trip (Job, widget, ApplyResult) over
// 512 users with 6 ratings each stay within 30 allocations per operation
// once every user has been served twice. TestHotPathAllocCap pins the
// payload alone; this adds the struct job, the widget and the fold-in.
func TestServingMixAllocCap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, items, ratingsPer = 512, 2000, 6
	e := NewEngine(DefaultConfig())
	defer e.Close()
	ctx := context.Background()
	batch := make([]core.Rating, 0, 1024)
	for u := 1; u <= users; u++ {
		for j := 0; j < ratingsPer; j++ {
			item := core.ItemID(uint32((u*ratingsPer+j)*40503) % items)
			batch = append(batch, core.Rating{User: core.UserID(u), Item: item, Liked: (u+j)%3 != 0})
			if len(batch) == cap(batch) || u == users && j == ratingsPer-1 {
				if err := e.RateBatch(ctx, batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	kernel := widget.New()
	roundTrip := func(u core.UserID) {
		job, err := e.Job(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := kernel.Execute(job)
		if _, err := e.ApplyResult(ctx, res); err != nil {
			t.Fatal(err)
		}
	}
	for u := 1; u <= users; u++ {
		roundTrip(core.UserID(u))
	}

	// Operation i serves user i·2654435761 mod 512 + 1, a permutation of
	// the population every 512 operations; every eighth is a round trip.
	i := 0
	block := func() {
		for end := i + 8; i < end; i++ {
			u := core.UserID(uint32(i)*2654435761%users + 1)
			if i%8 == 7 {
				roundTrip(u)
				continue
			}
			bufs := wire.GetPayloadBufs()
			j, g, err := e.AppendJobPayload(ctx, u, bufs.JSON, bufs.Gz)
			if err != nil {
				t.Fatal(err)
			}
			bufs.JSON, bufs.Gz = j, g
			wire.PutPayloadBufs(bufs)
		}
	}
	// Warm for two passes: the KNN rows the round trips fold in, and so
	// the candidate sets, are still moving during the first.
	for i < 2*users {
		block()
	}
	allocs := testing.AllocsPerRun(users/8, block) / 8
	t.Logf("allocs/op: %.2f", allocs)
	if allocs > 30 {
		t.Fatalf("serving mix allocates %.2f/op, want <= 30", allocs)
	}
}

// TestApplyResultAllocatesOnlyWhatItKeeps pins the fold-in: once pools
// are warm, a widget result for a user with retained recommendations
// allocates what the tables keep — the KNN row (its header and slot
// indices) and the recommendation list — and nothing else. The resolved
// neighbourhood lives in pooled scratch and duplicates are found by a
// scan, not a set.
func TestApplyResultAllocatesOnlyWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, items = 64, 500
	e := hotPathEngine(t, DefaultConfig(), users, items)
	defer e.Close()
	ctx := context.Background()
	kernel := widget.New()
	results := make([]*wire.Result, 0, users)
	for u := 1; u <= users; u++ {
		job, err := e.Job(ctx, core.UserID(u))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := kernel.Execute(job)
		if len(res.Neighbors) == 0 || len(res.Recommendations) == 0 {
			t.Fatalf("user %d: result names %d neighbours and %d recommendations, want some of each", u, len(res.Neighbors), len(res.Recommendations))
		}
		if _, err := e.ApplyResult(ctx, res); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	i := 0
	allocs := testing.AllocsPerRun(users, func() {
		if _, err := e.ApplyResult(ctx, results[i%users]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocs/op: %.2f", allocs)
	if allocs > 3 {
		t.Fatalf("ApplyResult allocates %.2f/op, want <= 3: the row's header and slots, and the recommendations", allocs)
	}
}

// TestSnapshotReadPathSeesSequentialWrites pins the freshness contract:
// a job assembled after a write always observes it — its own profile
// carries the rating and its candidate walk starts from the new row —
// because a write is a pointer store a reader loads, not a snapshot a
// reader waits for.
func TestSnapshotReadPathSeesSequentialWrites(t *testing.T) {
	e := NewEngine(DefaultConfig())
	defer e.Close()
	ctx := context.Background()
	anon := e.anonView()

	for i := 1; i <= 50; i++ {
		u := core.UserID(i)
		if err := e.Rate(ctx, u, core.ItemID(i*3), true); err != nil {
			t.Fatal(err)
		}
		job, err := e.Job(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint32(anon.AliasItem(core.ItemID(i * 3))); !slices.Contains(job.Profile.Liked, want) {
			t.Fatalf("job serves stale profile for user %d", u)
		}
		nb := core.UserID(i%7 + 1)
		e.KNN().Put(u, []core.UserID{nb})
		if job, err = e.Job(ctx, u); err != nil {
			t.Fatal(err)
		}
		if len(job.Candidates) == 0 || job.Candidates[0].ID != uint32(anon.AliasUser(nb)) {
			t.Fatalf("job for user %d does not start from the new KNN row %v", u, []core.UserID{nb})
		}
	}
	if n := e.Profiles().Len(); n != 50 {
		t.Fatalf("roster has %d users, want 50", n)
	}
}

func BenchmarkJobAssemblyEncode(b *testing.B) {
	const users, items = 256, 500
	e := hotPathEngine(b, DefaultConfig(), users, items)
	defer e.Close()
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := core.UserID(i%users + 1)
		j, g, err := e.AppendJobPayload(context.Background(), u, bufs.JSON[:0], bufs.Gz[:0])
		if err != nil {
			b.Fatal(err)
		}
		bufs.JSON, bufs.Gz = j, g
	}
}

// BenchmarkJobAssemblyEncodeParallel measures the contended case: many
// goroutines assembling jobs at once.
func BenchmarkJobAssemblyEncodeParallel(b *testing.B) {
	const users, items = 256, 500
	e := hotPathEngine(b, DefaultConfig(), users, items)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		bufs := wire.GetPayloadBufs()
		defer wire.PutPayloadBufs(bufs)
		i := 0
		for pb.Next() {
			i++
			u := core.UserID(i%users + 1)
			j, g, err := e.AppendJobPayload(context.Background(), u, bufs.JSON[:0], bufs.Gz[:0])
			if err != nil {
				b.Fatal(err)
			}
			bufs.JSON, bufs.Gz = j, g
		}
	})
}
