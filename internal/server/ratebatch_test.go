package server

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/wire"
)

// TestRateBatchMatchesRate is the differential test of the grouped
// ingest path: one engine takes seeded random multi-user batches — users
// repeated across a batch, items repeated inside one user's run,
// polarity flips, and a heavy user whose pack is kept warm — and its twin
// takes the same ratings one Rate at a time. After every batch the twins
// must agree on the scheduler's counters and on the job bytes of sampled
// users (so fragment invalidation still follows versions), and the
// caller's slice must be untouched; at the end every profile, version
// and the roster order must be equal.
func TestRateBatchMatchesRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeaseTTL = time.Hour // scheduler on; no lease expires mid-test
	batched, single := NewEngine(cfg), NewEngine(cfg)
	defer batched.Close()
	defer single.Close()

	const users, items, rounds = 60, 90, 80
	const heavy = core.UserID(1) // rated often, pack kept warm
	rng := rand.New(rand.NewSource(7))
	var batch []core.Rating
	for round := 0; round < rounds; round++ {
		batch = batch[:0]
		for n := 1 + rng.Intn(160); len(batch) < n; {
			// Skewed users, so runs are several ratings long; a small
			// item space, so runs re-rate and flip items.
			u := core.UserID(1 + rng.Intn(1+rng.Intn(users)))
			if rng.Intn(4) == 0 {
				u = heavy
			}
			batch = append(batch, core.Rating{User: u, Item: core.ItemID(rng.Intn(items)), Liked: rng.Intn(3) != 0})
		}
		sent := slices.Clone(batch)
		if err := batched.RateBatch(tctx, batch); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(batch, sent) {
			t.Fatalf("round %d: RateBatch modified the caller's slice", round)
		}
		for _, r := range batch {
			if err := single.Rate(tctx, r.User, r.Item, r.Liked); err != nil {
				t.Fatal(err)
			}
		}

		// Score the heavy user on both twins: the first time builds her
		// pack, later batches must carry it forward exactly.
		for _, e := range []*Engine{batched, single} {
			p, q := e.Profiles().Get(heavy), e.Profiles().Get(2)
			cold, err := core.ProfileFromSets(heavy, p.Liked(), p.Disliked())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := (core.SignedCosine{}).Score(p, q), (core.SignedCosine{}).Score(cold, q); got != want {
				t.Fatalf("round %d: warm-pack score %v, rebuilt %v", round, got, want)
			}
		}

		if a, b := batched.Scheduler().Stats(), single.Scheduler().Stats(); a != b {
			t.Fatalf("round %d: scheduler stats differ: batched %+v, single %+v", round, a, b)
		}
		for _, u := range []core.UserID{heavy, core.UserID(1 + rng.Intn(users)), core.UserID(1 + rng.Intn(users))} {
			a, b := jobBytes(t, batched, u), jobBytes(t, single, u)
			if !bytes.Equal(a, b) {
				t.Fatalf("round %d: job of user %d differs:\nbatched %s\nsingle  %s", round, u, a, b)
			}
		}
	}

	for u := core.UserID(1); u <= users; u++ {
		a, b := batched.Profiles().Get(u), single.Profiles().Get(u)
		if !a.Equal(b) || a.Version() != b.Version() {
			t.Fatalf("user %d: batched %v %v/%v, single %v %v/%v", u, a, a.Liked(), a.Disliked(), b, b.Liked(), b.Disliked())
		}
	}
	if a, b := batched.Profiles().Users(), single.Profiles().Users(); !slices.Equal(a, b) {
		t.Fatalf("roster order differs:\nbatched %v\nsingle  %v", a, b)
	}
	if a, b := batched.Scheduler().Stats(), single.Scheduler().Stats(); a != b {
		t.Fatalf("final scheduler stats differ: batched %+v, single %+v", a, b)
	}
}

// jobBytes returns u's job with the lease fields, which hold the
// wall-clock deadline, masked (maskLease), after checking its /online
// gzip inflates to it.
func jobBytes(t *testing.T, e *Engine, u core.UserID) []byte {
	t.Helper()
	body, gzBody, err := e.AppendJobPayload(tctx, u, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inflated, err := wire.Decompress(gzBody); err != nil || !bytes.Equal(inflated, body) {
		t.Fatalf("user %d: gzip body does not inflate to the job body (%v)", u, err)
	}
	masked, _ := maskLease(t, body)
	return masked
}

// TestRateBatchAllocCap guards the grouped ingest path: the Digg@0.2
// trace in 128-rating batches (the ingest benchmark's shape) into a
// scheduler engine, the whole trace once, then its flipped pass
// measured. Grouping a batch by user copies each user's profile once
// per batch rather than once per rating, which keeps the flipped pass
// within 0.5 allocations and 200 bytes per rating; copying per rating
// costs 1.00 allocations and ~440 bytes.
func TestRateBatchAllocCap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr, err := dataset.Generate(dataset.Scaled(dataset.DiggConfig(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	events := dataset.Binarize(tr)
	cfg := DefaultConfig()
	cfg.LeaseTTL = time.Hour
	e := NewEngine(cfg)
	defer e.Close()

	const size = 128
	batch := make([]core.Rating, 0, size)
	pass := func(flip bool) {
		for i := 0; i < len(events); i += size {
			batch = batch[:0]
			for _, ev := range events[i:min(i+size, len(events))] {
				r := ev.Rating()
				r.Liked = r.Liked != flip
				batch = append(batch, r)
			}
			if err := e.RateBatch(tctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(true)
	runtime.ReadMemStats(&after)
	n := float64(len(events))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d ratings: %.3f allocs and %.1f B per rating", len(events), allocs, bytesPer)
	if allocs > 0.5 || bytesPer > 200 {
		t.Fatalf("RateBatch allocates %.3f/rating and %.1f B/rating, want <= 0.5 and <= 200", allocs, bytesPer)
	}
}
