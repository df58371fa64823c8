package core

import (
	"slices"
	"testing"
)

// fuzzRun decodes data into a base profile and one user's run. data[0]
// picks whether the base's pack is warm (bit 0) and how far apart the
// items spread (bits 1-2), so runs touch one block or many; data[1]
// sizes the base; every later byte is one rating: item b>>1 (times the
// spread), liked when b is odd. The base is built by folding WithRating,
// so its sets are whatever that reference produces.
func fuzzRun(data []byte) (base Profile, run []Rating, warm bool) {
	if len(data) < 2 {
		return NewProfile(1), nil, false
	}
	spread := [4]ItemID{1, 3, 37, 251}[data[0]>>1&3]
	rating := func(b byte) Rating { return Rating{User: 1, Item: ItemID(b>>1) * spread, Liked: b&1 == 1} }
	rest := data[2:]
	n := min(int(data[1]), len(rest))
	base = NewProfile(1)
	for _, b := range rest[:n] {
		r := rating(b)
		base = base.WithRating(r.Item, r.Liked)
	}
	for _, b := range rest[n:] {
		run = append(run, rating(b))
	}
	return base, run, data[0]&1 == 1
}

// FuzzWithRatings pins the one-step merge to its specification: a run
// applied by WithRatings gives exactly the sets and version of folding
// WithRating over it, leaves the parent and the run untouched, and —
// when the parent's pack was warm — carries the pack forward equal to a
// rebuild of the child. Seed corpus under testdata/fuzz covers empty
// runs, re-ratings, flips, runs longer than the stack buffer and
// multi-block spreads.
func FuzzWithRatings(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 4, 2, 3, 4, 5, 3, 2, 2, 6})
	f.Add([]byte{7, 10, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 11, 21, 31, 41, 51, 61})
	f.Fuzz(func(t *testing.T, data []byte) {
		parent, run, warm := fuzzRun(data)
		if warm {
			parent.pk.v.Store(buildPacked(parent))
		}
		liked, disliked, version := slices.Clone(parent.liked), slices.Clone(parent.disliked), parent.version
		sent := slices.Clone(run)

		child := parent.WithRatings(run)

		// The reference folds WithRating over the run from a rebuilt
		// parent with a cell of its own, so it cannot touch child's pack.
		ref, _, _ := fuzzRun(data)
		for _, r := range run {
			ref = ref.WithRating(r.Item, r.Liked)
		}
		if !slices.Equal(child.liked, ref.liked) || !slices.Equal(child.disliked, ref.disliked) || child.version != ref.version {
			t.Fatalf("WithRatings = +%v -%v v%d, fold of WithRating = +%v -%v v%d",
				child.liked, child.disliked, child.version, ref.liked, ref.disliked, ref.version)
		}
		if !slices.Equal(parent.liked, liked) || !slices.Equal(parent.disliked, disliked) || parent.version != version {
			t.Fatalf("parent mutated: +%v -%v v%d, was +%v -%v v%d", parent.liked, parent.disliked, parent.version, liked, disliked, version)
		}
		if !slices.Equal(run, sent) {
			t.Fatalf("run modified: %v, was %v", run, sent)
		}
		if warm {
			pp := child.pk.v.Load()
			if pp == nil || !pp.matches(child) {
				t.Fatal("warm parent pack was not carried forward to the child")
			}
			if rebuilt := buildPacked(child); !equalBlocks(pp.blocks, rebuilt.blocks) {
				t.Fatalf("carried pack %v != rebuild %v", pp.blocks, rebuilt.blocks)
			}
		}
	})
}
