package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hyrec/internal/topk"
)

func TestSelectKNNBasic(t *testing.T) {
	ref := profileOf(1, 1, 2, 3, 4)
	candidates := []Profile{
		profileOf(2, 1, 2, 3, 4), // sim 1.0
		profileOf(3, 1, 2),       // sim 2/sqrt(8)
		profileOf(4, 9, 10),      // sim 0
		profileOf(5, 1, 2, 3),    // sim 3/sqrt(12)
	}
	got := SelectKNN(ref, candidates, 2, Cosine{})
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].User != 2 || got[1].User != 5 {
		t.Fatalf("KNN = %v, want users [2 5]", got)
	}
	if got[0].Sim != 1.0 {
		t.Errorf("best sim = %v", got[0].Sim)
	}
}

func TestSelectKNNSkipsSelf(t *testing.T) {
	ref := profileOf(1, 1, 2)
	candidates := []Profile{profileOf(1, 1, 2), profileOf(2, 1, 2)}
	got := SelectKNN(ref, candidates, 5, Cosine{})
	if len(got) != 1 || got[0].User != 2 {
		t.Fatalf("self not skipped: %v", got)
	}
}

func TestSelectKNNEdgeCases(t *testing.T) {
	ref := profileOf(1, 1)
	if got := SelectKNN(ref, nil, 3, Cosine{}); got != nil {
		t.Errorf("nil candidates → %v", got)
	}
	if got := SelectKNN(ref, []Profile{profileOf(2, 1)}, 0, Cosine{}); got != nil {
		t.Errorf("k=0 → %v", got)
	}
}

func TestSelectKNNFewerCandidatesThanK(t *testing.T) {
	ref := profileOf(1, 1, 2)
	got := SelectKNN(ref, []Profile{profileOf(2, 1)}, 10, Cosine{})
	if len(got) != 1 {
		t.Fatalf("len = %d, want 1", len(got))
	}
}

func TestSelectKNNDeterministicOnTies(t *testing.T) {
	ref := profileOf(1, 1, 2)
	// All candidates identical similarity; expect smallest IDs retained.
	var candidates []Profile
	for u := UserID(10); u >= 2; u-- {
		candidates = append(candidates, profileOf(u, 1, 2))
	}
	got := SelectKNN(ref, candidates, 3, Cosine{})
	if got[0].User != 2 || got[1].User != 3 || got[2].User != 4 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

// Property: SelectKNN agrees with the brute-force reference on random
// populations — this is the ideal-KNN equivalence the evaluation hinges on.
func TestSelectKNNMatchesBruteForceProperty(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%8) + 1
		n := 20 + rng.Intn(30)
		profiles := make([]Profile, n)
		for u := 0; u < n; u++ {
			p := NewProfile(UserID(u))
			for j := 0; j < 3+rng.Intn(10); j++ {
				p = p.WithRating(ItemID(rng.Intn(40)), true)
			}
			profiles[u] = p
		}
		ref := profiles[0]
		got := SelectKNN(ref, profiles, k, Cosine{})
		want := bruteKNN(ref, profiles, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].User != want[i].User || got[i].Sim != want[i].Sim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func bruteKNN(ref Profile, all []Profile, k int) []Neighbor {
	var ns []Neighbor
	for _, p := range all {
		if p.User() == ref.User() {
			continue
		}
		ns = append(ns, Neighbor{User: p.User(), Sim: (Cosine{}).Score(ref, p)})
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Sim != ns[j].Sim {
			return ns[i].Sim > ns[j].Sim
		}
		return ns[i].User < ns[j].User
	})
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

func TestViewSimilarity(t *testing.T) {
	ref := profileOf(1, 1, 2, 3, 4)
	hood := []Profile{
		profileOf(2, 1, 2, 3, 4), // 1.0
		profileOf(3, 9, 10),      // 0.0
	}
	got := ViewSimilarity(ref, hood, Cosine{})
	if got != 0.5 {
		t.Fatalf("ViewSimilarity = %v, want 0.5", got)
	}
	if ViewSimilarity(ref, nil, Cosine{}) != 0 {
		t.Error("empty neighborhood should be 0")
	}
}

// TestSelectKNNIntoAllocFree is the allocation guard on the similarity
// kernel: with a reused collector and destination, selecting a
// neighborhood out of 32 candidates allocates nothing, on the merge path
// (6 ratings/user, below packMinSize) and on the packed path (24).
func TestSelectKNNIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, items, cands, k = 64, 2000, 32, 10
	for _, ratingsPer := range []int{6, 24} {
		profiles := make([]Profile, users)
		for u := 1; u <= users; u++ {
			p := NewProfile(UserID(u))
			for j := 0; j < ratingsPer; j++ {
				p = p.WithRating(ItemID(uint32((u*ratingsPer+j)*40503)%items), (u+j)%3 != 0)
			}
			profiles[u-1] = p
		}
		col := topk.New(k)
		var hood []Neighbor
		selectAll := func() {
			for j, p := range profiles {
				lo := min(j, users-cands)
				hood = SelectKNNInto(p, profiles[lo:lo+cands], k, Cosine{}, col, hood)
			}
		}
		selectAll() // builds every pack and grows hood once
		if packed := profiles[0].packed() != nil; packed != (ratingsPer >= packMinSize) {
			t.Fatalf("%d ratings/user: packed=%v, not the path under test", ratingsPer, packed)
		}
		if allocs := testing.AllocsPerRun(20, selectAll); allocs != 0 {
			t.Fatalf("%d ratings/user: %v allocations per pass over %d selections, want 0", ratingsPer, allocs, users)
		}
	}
}

func BenchmarkSelectKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	profiles := make([]Profile, 120) // ≈ max candidate set for k=10
	for u := range profiles {
		p := NewProfile(UserID(u + 2))
		for j := 0; j < 100; j++ {
			p = p.WithRating(ItemID(rng.Intn(1700)), true)
		}
		profiles[u] = p
	}
	ref := profiles[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectKNN(ref, profiles, 10, Cosine{})
	}
}
