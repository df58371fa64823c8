package core

import (
	"fmt"
	"sort"
)

// Profile is the immutable opinion record of one user: the sets of items
// she liked and disliked, plus a version counter incremented on every
// update. Immutability is a deliberate design decision (ARCHITECTURE.md,
// "Design decisions and their ablations"):
// the HyRec server publishes profile snapshots that widgets, samplers and
// serializers read concurrently without locking. Updates return a new
// Profile sharing no mutable state with the old one.
//
// The zero value is a valid empty profile (version 0, no ratings).
type Profile struct {
	user     UserID
	version  uint64
	liked    []ItemID // sorted ascending, no duplicates
	disliked []ItemID // sorted ascending, no duplicates
	// pk caches the blocked-bitmap form of this lineage's latest-scored
	// snapshot (packed.go). The cell is shared down WithRating descent,
	// so it is derived state only: every read is version-checked against
	// the snapshot in hand. nil (zero-value profiles) just disables the
	// cache.
	pk *packCell
}

// NewProfile returns an empty profile for user u.
func NewProfile(u UserID) Profile { return Profile{user: u, pk: &packCell{}} }

// ProfileFromRatings builds a profile from a batch of ratings for user u.
// Later ratings for the same item overwrite earlier ones.
func ProfileFromRatings(u UserID, ratings []Rating) Profile {
	p := NewProfile(u)
	for _, r := range ratings {
		p = p.WithRating(r.Item, r.Liked)
	}
	return p
}

// User returns the identifier of the profile's owner.
func (p Profile) User() UserID { return p.user }

// Version returns the number of updates applied to this profile lineage.
// Two snapshots of the same user are identical iff their versions match,
// which the wire-level profile cache relies on.
func (p Profile) Version() uint64 { return p.version }

// Size returns the total number of rated items (liked + disliked).
// The paper calls this the "profile size" (Figures 8, 10, 13).
func (p Profile) Size() int { return len(p.liked) + len(p.disliked) }

// NumLiked returns the number of liked items.
func (p Profile) NumLiked() int { return len(p.liked) }

// Liked returns the sorted liked-item set. The returned slice is shared
// with the profile and MUST NOT be modified; copy it if mutation is needed.
// Sharing (rather than copying) is what makes candidate-set assembly and
// similarity computation allocation-free on the hot path.
func (p Profile) Liked() []ItemID { return p.liked }

// Disliked returns the sorted disliked-item set under the same no-modify
// contract as Liked.
func (p Profile) Disliked() []ItemID { return p.disliked }

// Contains reports whether the user has been exposed to item i (rated it
// either way). Algorithm 2 uses this to avoid recommending seen items.
func (p Profile) Contains(i ItemID) bool {
	return containsSorted(p.liked, i) || containsSorted(p.disliked, i)
}

// LikedContains reports whether the user liked item i.
func (p Profile) LikedContains(i ItemID) bool { return containsSorted(p.liked, i) }

// WithRating returns a new profile that additionally records the opinion
// (i, liked). Re-rating an item moves it between the liked and disliked
// sets. The receiver is unchanged. Both result sets are carved from one
// backing allocation (with hard capacity caps so neither can ever grow
// into the other), making a polarity flip one allocation, a new item
// one, and a re-rating that changes nothing zero — the sets are shared,
// which is safe because they are never mutated afterwards.
func (p Profile) WithRating(i ItemID, liked bool) Profile {
	next := Profile{user: p.user, version: p.version + 1, pk: p.pk}
	if next.pk == nil {
		next.pk = &packCell{}
	}
	tgt, oth := p.liked, p.disliked
	if !liked {
		tgt, oth = oth, tgt
	}
	ti := sort.Search(len(tgt), func(j int) bool { return tgt[j] >= i })
	oi := sort.Search(len(oth), func(j int) bool { return oth[j] >= i })
	ins := ti == len(tgt) || tgt[ti] != i
	rem := oi < len(oth) && oth[oi] == i
	newTgt, newOth := tgt, oth
	if ins || rem {
		nt, no := len(tgt)+1, len(oth)-1
		var buf []ItemID
		switch {
		case ins && rem:
			buf = make([]ItemID, nt+no)
		case ins:
			buf = make([]ItemID, nt)
		default:
			buf = make([]ItemID, no)
		}
		if ins {
			newTgt = buf[0:nt:nt]
			copy(newTgt, tgt[:ti])
			newTgt[ti] = i
			copy(newTgt[ti+1:], tgt[ti:])
			buf = buf[nt:]
		}
		if rem {
			newOth = buf[0:no:no]
			copy(newOth, oth[:oi])
			copy(newOth[oi:], oth[oi+1:])
		}
	}
	if liked {
		next.liked, next.disliked = newTgt, newOth
	} else {
		next.disliked, next.liked = newTgt, newOth
	}
	if pp := next.pk.v.Load(); pp != nil && pp.matches(p) {
		// The parent snapshot's pack is current (this lineage is being
		// scored): maintain it incrementally — one-block copy-on-write —
		// instead of leaving the next scorer a full rebuild. A cold cell
		// costs nothing here, so pure ingest never pays for packing.
		next.pk.v.Store(pp.withRating(i, liked, next.liked, next.disliked))
	}
	return next
}

// WithoutItem returns a new profile with any opinion on i removed.
func (p Profile) WithoutItem(i ItemID) Profile {
	return Profile{
		user:     p.user,
		version:  p.version + 1,
		liked:    removeSorted(p.liked, i),
		disliked: removeSorted(p.disliked, i),
		pk:       &packCell{},
	}
}

// Truncate returns a profile restricted to at most n most-recently-ranked
// items per set. Content providers can bound profile (and hence message)
// size this way (Section 6 of the paper discusses this knob).
func (p Profile) Truncate(n int) Profile {
	next := Profile{user: p.user, version: p.version + 1, pk: &packCell{}}
	next.liked = tailCopy(p.liked, n)
	next.disliked = tailCopy(p.disliked, n)
	return next
}

// Equal reports whether two profiles hold identical opinions (ignoring
// version numbers).
func (p Profile) Equal(q Profile) bool {
	return p.user == q.user && equalIDs(p.liked, q.liked) && equalIDs(p.disliked, q.disliked)
}

// String implements fmt.Stringer with a compact diagnostic form.
func (p Profile) String() string {
	return fmt.Sprintf("profile(%s v%d +%d -%d)", p.user, p.version, len(p.liked), len(p.disliked))
}

func tailCopy(ids []ItemID, n int) []ItemID {
	if len(ids) <= n {
		ids2 := make([]ItemID, len(ids))
		copy(ids2, ids)
		return ids2
	}
	out := make([]ItemID, n)
	copy(out, ids[len(ids)-n:])
	return out
}

func equalIDs(a, b []ItemID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsSorted(ids []ItemID, x ItemID) bool {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= x })
	return i < len(ids) && ids[i] == x
}

// removeSorted returns a fresh sorted slice equal to ids \ {x}.
// If x is absent it returns ids unchanged (sharing is safe: the slice is
// never mutated afterwards).
func removeSorted(ids []ItemID, x ItemID) []ItemID {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= x })
	if i >= len(ids) || ids[i] != x {
		return ids
	}
	out := make([]ItemID, len(ids)-1)
	copy(out, ids[:i])
	copy(out[i:], ids[i+1:])
	return out
}

// IntersectCount returns |a ∩ b| for two sorted ID slices. When the sizes
// are lopsided it switches from a linear merge to galloping binary search,
// which matters for power-law profile-size distributions.
func IntersectCount(a, b []ItemID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	// Galloping pays off when b is much larger than a. The 8× threshold
	// is tuned with BenchmarkIntersect: at ratio 8 galloping already
	// edges out the merge for both small and large |a|, and by ratio 16
	// it is ~2× faster; below ratio 8 the branch-predictable merge wins.
	// This path is also the documented fallback for profiles below the
	// packing break-even (packMinSize in packed.go).
	if len(b) >= 8*len(a) {
		count := 0
		lo := 0
		for _, x := range a {
			i := lo + sort.Search(len(b)-lo, func(j int) bool { return b[lo+j] >= x })
			if i < len(b) && b[i] == x {
				count++
				lo = i + 1
			} else {
				lo = i
			}
			if lo >= len(b) {
				break
			}
		}
		return count
	}
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			count++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return count
}
