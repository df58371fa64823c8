package wire

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hyrec/internal/core"
)

// rankCorrelation is Spearman's ρ between the positions 0..n-1 and the
// (distinct) values at them: +1 for a list in ascending order, within a
// few 1/√n of 0 for one whose order says nothing about the values.
func rankCorrelation(values []uint32) float64 {
	n := len(values)
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	var d2 float64
	for pos, v := range values {
		rank, _ := slices.BinarySearch(sorted, v)
		d := float64(pos - rank)
		d2 += d * d
	}
	return 1 - 6*d2/(float64(n)*(float64(n)*float64(n)-1))
}

// TestWireOrderHidesRealIDOrder: under a real anonymiser, a profile's
// lists cross the wire ascending in pseudonym space, and that order is
// unrelated to the order of the real IDs behind them. Before the lists
// were sorted they went out in real-ID order (ρ = 1 exactly), which
// tells a client how the real IDs behind any two pseudonyms of one list
// compare; enough profiles chain those comparisons into the total
// order of the catalogue the mapping is there to hide.
func TestWireOrderHidesRealIDOrder(t *testing.T) {
	anon := core.NewAnonymizer(5)
	rng := rand.New(rand.NewSource(6))
	var worst float64
	for trial := 0; trial < 50; trial++ {
		if trial%10 == 9 {
			anon.Advance()
		}
		p := core.NewProfile(core.UserID(trial + 1))
		for i := 0; i < 400; i++ {
			p = p.WithRating(core.ItemID(rng.Intn(6000)), rng.Intn(4) > 0)
		}
		view := anon.View()
		msg := ProfileToMsg(p, view)
		for name, pair := range map[string]struct {
			wire []uint32
			real []core.ItemID
		}{"liked": {msg.Liked, p.Liked()}, "disliked": {msg.Disliked, p.Disliked()}} {
			if !slices.IsSorted(pair.wire) || len(slices.Compact(slices.Clone(pair.wire))) != len(pair.wire) {
				t.Fatalf("%s pseudonyms are not strictly ascending: %v", name, pair.wire)
			}
			// The same set as the profile's, resolved back.
			real := make([]uint32, len(pair.wire))
			for i, alias := range pair.wire {
				it, ok := anon.ResolveItem(core.ItemID(alias), view.Epoch())
				if !ok {
					t.Fatalf("pseudonym %d does not resolve", alias)
				}
				real[i] = uint32(it)
			}
			inOrder := slices.Clone(real)
			slices.Sort(inOrder)
			for i, it := range pair.real {
				if inOrder[i] != uint32(it) {
					t.Fatalf("%s list is not the profile's set", name)
				}
			}
			// Six standard deviations of ρ under independence.
			rho := rankCorrelation(real)
			if limit := 6 / math.Sqrt(float64(len(real))); math.Abs(rho) > limit {
				t.Errorf("%s: wire order tracks real-ID order, ρ = %.3f over %d items (limit %.3f)", name, rho, len(real), limit)
			}
			worst = max(worst, math.Abs(rho))
		}
	}
	t.Logf("largest |ρ| between wire order and real-ID order: %.3f", worst)

	// Without an anonymiser the IDs on the wire are the real ones, and
	// ascending is the order they are stored in.
	p := core.NewProfile(1).WithRating(9, true).WithRating(3, true).WithRating(5, false)
	if msg := ProfileToMsg(p, nil); !slices.Equal(msg.Liked, []uint32{3, 9}) || !slices.Equal(msg.Disliked, []uint32{5}) {
		t.Fatalf("identity form: %+v", msg)
	}
}

// TestMsgToProfileSortedFastPath: the O(n) adoption of lists that arrive
// strictly ascending and disjoint builds exactly the profile the general
// path builds from the same ratings in any order, with any repeats —
// and both are the profile a rating-at-a-time loop builds (duplicates
// collapse, dislikes win).
func TestMsgToProfileSortedFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		n, span := rng.Intn(40), 1+rng.Intn(60)
		liked := make([]uint32, n)
		for i := range liked {
			liked[i] = uint32(rng.Intn(span))
		}
		disliked := make([]uint32, rng.Intn(20))
		for i := range disliked {
			disliked[i] = uint32(rng.Intn(span))
		}
		slow := MsgToProfile(ProfileMsg{ID: 7, Liked: liked, Disliked: disliked})

		want := core.NewProfile(7)
		for _, it := range liked {
			want = want.WithRating(core.ItemID(it), true)
		}
		for _, it := range disliked {
			want = want.WithRating(core.ItemID(it), false)
		}
		if !slices.Equal(slow.Liked(), want.Liked()) || !slices.Equal(slow.Disliked(), want.Disliked()) {
			t.Fatalf("general path differs from the rating loop on liked=%v disliked=%v:\n got %v\nwant %v", liked, disliked, slow, want)
		}

		// The canonical wire form of that profile takes the fast path.
		canon := ProfileToMsg(want, nil)
		fast := MsgToProfile(canon)
		if !slices.Equal(fast.Liked(), slow.Liked()) || !slices.Equal(fast.Disliked(), slow.Disliked()) {
			t.Fatalf("fast path differs on liked=%v disliked=%v:\n fast %v\n slow %v", canon.Liked, canon.Disliked, fast, slow)
		}
		if (core.Cosine{}).Score(fast, slow) != (core.Cosine{}).Score(slow, slow) {
			t.Fatalf("fast-path profile scores differently from the general one")
		}

		// Sorted but overlapping, and sorted with a repeat, still fall
		// back to the general treatment.
		if len(canon.Liked) > 0 {
			overlap := ProfileMsg{ID: 7, Liked: canon.Liked, Disliked: append(slices.Clone(canon.Disliked), canon.Liked[0])}
			slices.Sort(overlap.Disliked)
			got := MsgToProfile(overlap)
			if got.LikedContains(core.ItemID(canon.Liked[0])) || !got.Contains(core.ItemID(canon.Liked[0])) {
				t.Fatalf("an item on both sorted lists must end up disliked: %v", got)
			}
			repeat := ProfileMsg{ID: 7, Liked: append([]uint32{canon.Liked[0]}, canon.Liked...)}
			if got := MsgToProfile(repeat); len(got.Liked()) != len(canon.Liked) {
				t.Fatalf("a repeated item must collapse: %v from %v", got.Liked(), repeat.Liked)
			}
		}
	}
}
