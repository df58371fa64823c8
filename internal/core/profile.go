package core

import (
	"cmp"
	"fmt"
	"slices"
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
	// snapshot (packed.go). The cell is shared down WithRatings descent,
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
	return NewProfile(u).WithRatings(ratings)
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
// sets. The receiver is unchanged. It is the one-rating case of
// WithRatings: a polarity flip costs one allocation, a new item one, and
// a re-rating that changes nothing zero.
func (p Profile) WithRating(i ItemID, liked bool) Profile {
	one := [1]Rating{{User: p.user, Item: i, Liked: liked}}
	return p.merge(one[:], 1)
}

// runStack is how long a run WithRatings nets without allocating.
const runStack = 32

// WithRatings returns a new profile that records run in order, exactly
// as folding WithRating over it would — the later opinion on an item
// wins, and the version advances once per rating — in one copy-on-write.
// The User fields of run are ignored; run is neither modified nor
// retained, and the receiver is unchanged.
func (p Profile) WithRatings(run []Rating) Profile {
	if len(run) == 0 {
		return p
	}
	if strictlyAscending(run) {
		return p.merge(run, len(run)) // already one opinion per item, in order
	}
	var stack [runStack]Rating
	net := append(stack[:0], run...)
	slices.SortStableFunc(net, func(a, b Rating) int { return cmp.Compare(a.Item, b.Item) })
	return p.merge(lastPerItem(net), len(run))
}

// strictlyAscending reports whether run's items strictly ascend — a run
// merge can take as it is.
func strictlyAscending(run []Rating) bool {
	for i := 1; i < len(run); i++ {
		if run[i].Item <= run[i-1].Item {
			return false
		}
	}
	return true
}

// lastPerItem keeps, in place, the last rating of each group of equal
// items in net, which is sorted stably by item.
func lastPerItem(net []Rating) []Rating {
	w := 0
	for i, r := range net {
		if i+1 < len(net) && net[i+1].Item == r.Item {
			continue
		}
		net[w] = r
		w++
	}
	return net[:w]
}

// merge is the one profile update behind WithRating and WithRatings: the
// receiver plus the net opinions ch (strictly ascending by item, one per
// item), with the version advanced by n. The changed sets are carved from
// one backing allocation, with hard capacity caps so neither can ever
// grow into the other; a set ch leaves as it is stays shared, which is
// safe because sets are never mutated once published.
func (p *Profile) merge(ch []Rating, n int) Profile {
	next := Profile{user: p.user, version: p.version + uint64(n), pk: p.pk}
	if next.pk == nil {
		next.pk = &packCell{}
	}
	// An opinion changes the set it joins when the item is not in it
	// yet, and the other set when the item was there. ch is ascending,
	// so each search starts where the previous one stopped.
	var addL, remL, addD, remD int
	var li, di, l0, d0 int // l0, d0: where ch's first item falls in each set
	for k, c := range ch {
		li += searchItem(p.liked[li:], c.Item)
		di += searchItem(p.disliked[di:], c.Item)
		if k == 0 {
			l0, d0 = li, di
		}
		inL := li < len(p.liked) && p.liked[li] == c.Item
		inD := di < len(p.disliked) && p.disliked[di] == c.Item
		switch {
		case c.Liked && !inL:
			addL++
			if inD {
				remD++
			}
		case !c.Liked && !inD:
			addD++
			if inL {
				remL++
			}
		}
	}
	next.liked, next.disliked = p.liked, p.disliked
	editL, editD := addL+remL > 0, addD+remD > 0
	if !editL && !editD {
		return next
	}
	nl, nd := len(p.liked)+addL-remL, len(p.disliked)+addD-remD
	size := 0
	if editL {
		size += nl
	}
	if editD {
		size += nd
	}
	buf := make([]ItemID, size)
	if editL {
		next.liked = mergeSet(buf[0:nl:nl], p.liked, l0, ch, true)
		buf = buf[nl:]
	}
	if editD {
		next.disliked = mergeSet(buf[0:nd:nd], p.disliked, d0, ch, false)
	}
	if pp := next.pk.v.Load(); pp != nil && pp.matches(*p) {
		// The parent snapshot's pack is current (this lineage is being
		// scored): maintain it incrementally — one block copy-on-write —
		// instead of leaving the next scorer a full rebuild. A cold cell
		// costs nothing here, so pure ingest never pays for packing.
		next.pk.v.Store(pp.withRatings(ch, next.liked, next.disliked))
	}
	return next
}

// mergeSet fills dst with the set old after the opinions ch, whose
// polarity is liked: every item of ch leaves old, and the ones with that
// polarity join it. from is where ch's first item falls in old. Runs of
// old between the items of ch are block copies.
func mergeSet(dst, old []ItemID, from int, ch []Rating, liked bool) []ItemID {
	w := copy(dst, old[:from])
	i := from
	for k, c := range ch {
		if k > 0 {
			j := i + searchItem(old[i:], c.Item)
			w += copy(dst[w:], old[i:j])
			i = j
		}
		if i < len(old) && old[i] == c.Item {
			i++
		}
		if c.Liked == liked {
			dst[w] = c.Item
			w++
		}
	}
	copy(dst[w:], old[i:])
	return dst
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
	i := searchItem(ids, x)
	return i < len(ids) && ids[i] == x
}

// searchItem returns the index of the first element of the sorted ids
// that is >= x (len(ids) if none): sort.Search without the closure call
// per probe.
func searchItem(ids []ItemID, x ItemID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// removeSorted returns a fresh sorted slice equal to ids \ {x}.
// If x is absent it returns ids unchanged (sharing is safe: the slice is
// never mutated afterwards).
func removeSorted(ids []ItemID, x ItemID) []ItemID {
	i := searchItem(ids, x)
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
