package core

import (
	"math/bits"
	"sync/atomic"
)

// This file implements the blocked-bitmap similarity kernel: a packed
// representation of a profile's sorted item sets as aligned 64-item
// blocks, so set intersections — the inner loop of every Similarity
// metric — become word-AND + popcount instead of an element-by-element
// merge. The packed form is derived data: it is keyed to the exact
// Profile snapshot it was built from, cached in a cell shared down the
// profile's update lineage, and rebuilt lazily whenever the cached
// snapshot no longer matches. Counts produced by the packed kernels are
// exactly the integers the merge/galloping reference produces
// (FuzzSimilarityKernelEquivalence pins this), so similarity scores —
// and therefore recommendation payloads — are byte-identical whichever
// path runs.

// packedBlock is one aligned 64-item span of the ItemID space: key is
// item>>6, and bit b of each word records the opinion on item key<<6|b.
// Blocks are sorted by key and never empty (at least one bit set across
// the two words).
type packedBlock struct {
	key      uint32
	liked    uint64
	disliked uint64
}

// packedProfile is the packed twin of one Profile snapshot. It is
// immutable after construction. liked/disliked alias the snapshot's own
// backing arrays: since profile sets are never mutated, pointer + length
// identity of those arrays identifies the snapshot's content exactly —
// and retaining them here rules out ABA reuse of a freed array's
// address. Version numbers alone would not do: two WithRating siblings
// of one parent share a cell and both carry version+1.
type packedProfile struct {
	liked    []ItemID
	disliked []ItemID
	blocks   []packedBlock
}

// matches reports whether pp encodes exactly p's item sets.
func (pp *packedProfile) matches(p Profile) bool {
	return sameIDs(pp.liked, p.liked) && sameIDs(pp.disliked, p.disliked)
}

// sameIDs is slice identity (not content equality): same length and same
// backing array. Immutability makes identity imply content equality.
func sameIDs(a, b []ItemID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// packCell is the per-lineage cache slot for the packed form. The cell
// is shared between a profile and its WithRating descendants, so a
// refresh scoring the latest snapshot reuses (or incrementally updates)
// the pack built for its ancestors instead of rebuilding from scratch.
// Stores race benignly: the pack is derived data checked against the
// snapshot in hand, so the worst outcome of a lost store is one extra
// rebuild.
type packCell struct {
	v atomic.Pointer[packedProfile]
}

// packMinSize is the packing break-even: profiles with fewer total
// items score through the merge/galloping fallback (IntersectCount),
// which beats pack construction + block walk at these sizes. Both paths
// produce identical counts, so the gate is purely a cost decision.
// Tuned against BenchmarkIntersect / BenchmarkSimilarityKernel.
const packMinSize = 8

// noKey is a block key no item has: keys are ItemID>>6 < 1<<26.
const noKey = uint32(1) << 31

// packed returns the cached packed form of p, building and caching it
// on miss. It returns nil — meaning "use the merge fallback" — for
// profiles below the packing break-even or outside any cache lineage
// (zero-value profiles).
func (p Profile) packed() *packedProfile {
	c := p.pk
	if c == nil || len(p.liked)+len(p.disliked) < packMinSize {
		return nil
	}
	if pp := c.v.Load(); pp != nil && pp.matches(p) {
		return pp
	}
	pp := buildPacked(p)
	c.v.Store(pp)
	return pp
}

// buildPacked constructs the packed form of p from its sorted sets: a
// two-pass merge (count distinct keys, then fill) so the block slice is
// allocated exactly once at exact size.
func buildPacked(p Profile) *packedProfile {
	l, d := p.liked, p.disliked
	n := 0
	prev := noKey
	i, j := 0, 0
	for i < len(l) || j < len(d) {
		var k uint32
		if j >= len(d) || (i < len(l) && l[i] <= d[j]) {
			k = uint32(l[i]) >> 6
			i++
		} else {
			k = uint32(d[j]) >> 6
			j++
		}
		if k != prev {
			n++
			prev = k
		}
	}
	blocks := make([]packedBlock, n)
	w := -1
	prev = noKey
	i, j = 0, 0
	for i < len(l) || j < len(d) {
		var id ItemID
		var liked bool
		if j >= len(d) || (i < len(l) && l[i] <= d[j]) {
			id, liked = l[i], true
			i++
		} else {
			id, liked = d[j], false
			j++
		}
		k := uint32(id) >> 6
		if k != prev {
			w++
			blocks[w].key = k
			prev = k
		}
		bit := uint64(1) << (uint32(id) & 63)
		if liked {
			blocks[w].liked |= bit
		} else {
			blocks[w].disliked |= bit
		}
	}
	return &packedProfile{liked: l, disliked: d, blocks: blocks}
}

// withRatings is the incremental maintenance step behind Profile.merge:
// the parent snapshot's pack plus the net opinions ch (strictly
// ascending by item), re-keyed to the child's sets. Copy-on-write of the
// block slice with every touched block modified or inserted, in a single
// allocation — the packed analogue of merge's single-backing-allocation
// discipline. The result is exactly buildPacked of the child profile
// (TestPackedIncrementalMatchesRebuild and FuzzWithRatings pin this).
func (pp *packedProfile) withRatings(ch []Rating, nextLiked, nextDisliked []ItemID) *packedProfile {
	old := pp.blocks
	// Count the blocks ch inserts: keys of ch are ascending, so one
	// forward pass of binary searches finds them.
	n, i := len(old), 0
	prev := noKey
	for _, c := range ch {
		k := uint32(c.Item) >> 6
		if k == prev {
			continue
		}
		prev = k
		i += searchBlocks(old[i:], k)
		if i == len(old) || old[i].key != k {
			n++
		}
	}
	blocks := make([]packedBlock, n)
	w := 0
	i = 0
	for _, c := range ch {
		k := uint32(c.Item) >> 6
		if w == 0 || blocks[w-1].key != k {
			j := i + searchBlocks(old[i:], k)
			w += copy(blocks[w:], old[i:j])
			i = j
			if i < len(old) && old[i].key == k {
				blocks[w] = old[i]
				i++
			} else {
				blocks[w] = packedBlock{key: k}
			}
			w++
		}
		b := &blocks[w-1]
		bit := uint64(1) << (uint32(c.Item) & 63)
		if c.Liked {
			b.liked |= bit
			b.disliked &^= bit
		} else {
			b.disliked |= bit
			b.liked &^= bit
		}
	}
	copy(blocks[w:], old[i:])
	return &packedProfile{liked: nextLiked, disliked: nextDisliked, blocks: blocks}
}

// searchBlocks returns the index of the first block whose key is >= key
// (len(blocks) if none).
func searchBlocks(blocks []packedBlock, key uint32) int {
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if blocks[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectLiked returns |L(a) ∩ L(b)| by walking the aligned blocks of
// both packs and popcounting word ANDs — the fast path behind Cosine,
// Jaccard and Overlap.
func (a *packedProfile) intersectLiked(b *packedProfile) int {
	ab, bb := a.blocks, b.blocks
	count, i, j := 0, 0, 0
	for i < len(ab) && j < len(bb) {
		ka, kb := ab[i].key, bb[j].key
		switch {
		case ka == kb:
			count += bits.OnesCount64(ab[i].liked & bb[j].liked)
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	return count
}

// signedCounts returns (|L∩L| + |D∩D|, |L∩D| + |D∩L|) in a single block
// walk — SignedCosine's agree/clash terms, which the merge reference
// needs four separate intersections for.
func (a *packedProfile) signedCounts(b *packedProfile) (agree, clash int) {
	ab, bb := a.blocks, b.blocks
	i, j := 0, 0
	for i < len(ab) && j < len(bb) {
		ka, kb := ab[i].key, bb[j].key
		switch {
		case ka == kb:
			al, ad := ab[i].liked, ab[i].disliked
			bl, bd := bb[j].liked, bb[j].disliked
			agree += bits.OnesCount64(al&bl) + bits.OnesCount64(ad&bd)
			clash += bits.OnesCount64(al&bd) + bits.OnesCount64(ad&bl)
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	return agree, clash
}

// likedIntersect is the kernel dispatch for the liked-set metrics: the
// packed block walk when both profiles have (or can cheaply build) a
// pack, the merge/galloping reference otherwise. Both paths return the
// same integer, so callers never observe which one ran.
func likedIntersect(a, b Profile) int {
	if pa := a.packed(); pa != nil {
		if pb := b.packed(); pb != nil {
			return pa.intersectLiked(pb)
		}
	}
	return IntersectCount(a.liked, b.liked)
}

// signedIntersect is likedIntersect's twin for SignedCosine: one block
// walk on the packed path versus four merges on the fallback.
func signedIntersect(a, b Profile) (agree, clash int) {
	if pa := a.packed(); pa != nil {
		if pb := b.packed(); pb != nil {
			return pa.signedCounts(pb)
		}
	}
	agree = IntersectCount(a.liked, b.liked) + IntersectCount(a.disliked, b.disliked)
	clash = IntersectCount(a.liked, b.disliked) + IntersectCount(a.disliked, b.liked)
	return agree, clash
}
