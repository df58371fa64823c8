package server

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

func TestRecStoreLRUEviction(t *testing.T) {
	s := newRecStore(3)
	for u := core.UserID(1); u <= 3; u++ {
		s.Put(u, []core.ItemID{core.ItemID(u)})
	}
	// Touch 1 so 2 becomes the eviction victim.
	if got := s.Get(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Get(1) = %v", got)
	}
	s.Put(4, []core.ItemID{4})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Get(2) != nil {
		t.Fatal("LRU victim 2 not evicted")
	}
	for _, u := range []core.UserID{1, 3, 4} {
		if s.Get(u) == nil {
			t.Fatalf("user %d evicted unexpectedly", u)
		}
	}
	// Updating an existing user must not evict anyone.
	s.Put(3, []core.ItemID{30})
	if s.Len() != 3 {
		t.Fatalf("Len after update = %d, want 3", s.Len())
	}
	if got := s.Get(3); len(got) != 1 || got[0] != 30 {
		t.Fatalf("Get(3) after update = %v", got)
	}
}

// TestRecStoreMatchesReferenceLRU drives the array-backed store and a
// plain recency-ordered slice through one seeded sequence of Put, Get
// and PutIfAbsent, checking every answer and the retained set after
// each step, so the intrusive list's head, tail and middle unlinks all
// run against a reference.
func TestRecStoreMatchesReferenceLRU(t *testing.T) {
	const capacity, users = 5, 9
	s := newRecStore(capacity)
	var order []core.UserID // most recent first
	ref := map[core.UserID][]core.ItemID{}
	touch := func(u core.UserID) {
		order = slices.DeleteFunc(order, func(v core.UserID) bool { return v == u })
		order = slices.Insert(order, 0, u)
	}
	add := func(u core.UserID, recs []core.ItemID) {
		if len(order) == capacity {
			delete(ref, order[capacity-1])
			order = order[:capacity-1]
		}
		ref[u] = recs
		touch(u)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 2000; step++ {
		u := core.UserID(rng.Intn(users))
		recs := []core.ItemID{core.ItemID(step)}
		switch op := rng.Intn(3); op {
		case 0:
			s.Put(u, recs)
			if _, ok := ref[u]; ok {
				ref[u] = recs
				touch(u)
			} else {
				add(u, recs)
			}
		case 1:
			got, want := s.Get(u), ref[u]
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Get(%d) = %v, want %v", step, u, got, want)
			}
			if want != nil {
				touch(u)
			}
		case 2:
			_, had := ref[u]
			if stored := s.PutIfAbsent(u, recs); stored == had {
				t.Fatalf("step %d: PutIfAbsent(%d) = %v with the user retained = %v", step, u, stored, had)
			}
			if !had {
				add(u, recs)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
	}
	// Get refreshes recency, so read from least to most recent.
	for i := len(order) - 1; i >= 0; i-- {
		if got := s.Get(order[i]); !slices.Equal(got, ref[order[i]]) {
			t.Fatalf("final Get(%d) = %v, want %v", order[i], got, ref[order[i]])
		}
	}
}

func TestRecStoreDefaultCapacity(t *testing.T) {
	s := newRecStore(0)
	if s.cap != defaultRecCapacity {
		t.Fatalf("default capacity = %d, want %d", s.cap, defaultRecCapacity)
	}
}

func TestRecStoreConcurrent(t *testing.T) {
	s := newRecStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := core.UserID(i % 100)
				s.Put(u, []core.ItemID{core.ItemID(g), core.ItemID(i)})
				s.Get(u)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", s.Len())
	}
}

// TestEngineRecommendationsBounded pins the memory-leak fix end to end: a
// server living through user churn retains recommendations only for the
// configured number of recent users.
func TestEngineRecommendationsBounded(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAnonymizer = true
	cfg.RecCacheUsers = 8
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 40; u++ {
		e.Rate(tctx, u, 1, true)
		if _, err := e.ApplyResult(tctx, &wire.Result{
			UID: uint32(u), Recommendations: []uint32{uint32(u) + 100},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.recs.Len(); got != 8 {
		t.Fatalf("retained rec entries = %d, want 8", got)
	}
	// The most recent user still answers; the oldest is gone.
	recs, err := e.Recommendations(tctx, 40, 0)
	if err != nil || len(recs) != 1 || recs[0] != 140 {
		t.Fatalf("Recommendations(40) = %v, %v", recs, err)
	}
	if recs, _ := e.Recommendations(tctx, 1, 0); recs != nil {
		t.Fatalf("Recommendations(1) = %v, want nil after eviction", recs)
	}
}
