package core

import (
	"errors"
	"fmt"
	"slices"
)

// ErrInvalidSets reports that liked/disliked item sets passed to
// ProfileFromSets are not disjoint.
var ErrInvalidSets = errors.New("core: liked and disliked sets intersect")

// ProfileFromSets builds a profile directly from liked and disliked item
// sets, in O(n log n) instead of the O(n²) of repeated WithRating calls.
// The inputs need not be sorted; duplicates are removed. The two sets must
// be disjoint. The slices are copied, so the caller keeps ownership.
//
// Bulk constructors like this are the fast path for dataset loaders, the
// persistence layer, and the privacy perturbation mechanism, all of which
// materialise whole profiles at once.
func ProfileFromSets(u UserID, liked, disliked []ItemID) (Profile, error) {
	l := normalizeIDs(liked)
	d := normalizeIDs(disliked)
	if intersects(l, d) {
		return Profile{}, fmt.Errorf("%w: user %v", ErrInvalidSets, u)
	}
	return Profile{user: u, version: uint64(len(l) + len(d)), liked: l, disliked: d, pk: &packCell{}}, nil
}

// ProfileFromLists builds a profile from raw ID lists in their wire form
// (possibly unsorted, possibly overlapping), with exactly the semantics
// of applying every liked rating then every disliked rating through
// WithRating: duplicates collapse, and an item on both lists ends up
// disliked (the later opinion wins). Both result sets are carved from
// one backing allocation. This is the widget's bulk path for decoding
// wire profiles. Lists that arrive strictly ascending and disjoint —
// how the server sends them — are adopted in O(n): each is checked as
// it is copied and only a list that fails the check is sorted.
func ProfileFromLists(u UserID, liked, disliked []uint32) Profile {
	n := len(liked) + len(disliked)
	p := Profile{user: u, version: uint64(n), pk: &packCell{}}
	if n == 0 {
		return p
	}
	buf := make([]ItemID, n)
	l := copyNormalized(buf[0:len(liked):len(liked)], liked)
	d := copyNormalized(buf[len(liked):], disliked)
	if intersects(l, d) {
		l = subtractSorted(l, d)
	}
	p.liked, p.disliked = l, d
	return p
}

// copyNormalized fills dst (len(dst) == len(src)) with src as a sorted,
// duplicate-free set, sorting only if src is not strictly ascending.
func copyNormalized(dst []ItemID, src []uint32) []ItemID {
	ascending := true
	for i, x := range src {
		dst[i] = ItemID(x)
		if i > 0 && x <= src[i-1] {
			ascending = false
		}
	}
	if ascending {
		return dst
	}
	slices.Sort(dst)
	return dedupSorted(dst)
}

// normalizeIDs returns a fresh sorted duplicate-free copy of ids.
func normalizeIDs(ids []ItemID) []ItemID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]ItemID, len(ids))
	copy(out, ids)
	slices.Sort(out)
	return dedupSorted(out)
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(ids []ItemID) []ItemID {
	if len(ids) == 0 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// subtractSorted removes, in place, every element of b from a (both
// sorted, duplicate-free).
func subtractSorted(a, b []ItemID) []ItemID {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	w, j := 0, 0
	for i := 0; i < len(a); i++ {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			continue
		}
		a[w] = a[i]
		w++
	}
	return a[:w]
}

// intersects reports whether two sorted slices share an element.
func intersects(a, b []ItemID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
