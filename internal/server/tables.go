// Package server implements the HyRec server side (Section 3.1 of the
// paper): the global Profile and KNN tables, the Sampler that assembles
// candidate sets, and the Personalization orchestrator that turns client
// requests into personalization jobs and folds widget results back into
// the KNN table. An HTTP front-end (http.go) exposes the paper's web API.
package server

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// This file is the engine's user-slot table: the Profile table, the KNN
// table and the serialized-profile cache folded into one structure.
//
// A user gets a dense slot index the first time the engine references
// her — registration, a KNN row written for her or naming her, a job
// candidate. Slots live in append-only chunks, so a slot never
// moves and readers take no lock to reach one. A slot holds the user's
// profile snapshot, her KNN row (her neighbours' slot indices and
// nothing else, so the sampler's one-hop/two-hop walk is array
// indexing) and her encoded job fragment. A fold-in is one pointer
// store; a user's ratings in one batch replace the profile value once
// under the slot's own mutex, which a reader holds for the 72-byte
// copy. Keeping the profile inline rather than behind a per-rating
// pointer is what keeps ingest cheap: a boxed snapshot costs an
// allocation per rating and one more object per user for every GC cycle
// to mark. The only map left is uid → slot.
//
// Slots are never reused: other users' KNN rows hold slot indices, and a
// reused slot would silently re-point them at a different user. A slot
// that was never registered — a foreign user a cluster partition
// references, a neighbour nobody rated here — has no profile and is not
// in the roster, so it is never drawn as a random candidate. A
// registered slot stays registered: the roster only grows.

// numShards spreads the uid → slot index and the sampling RNGs; a power
// of two so the shard index is a mask operation.
const numShards = 64

func shardOf(u core.UserID) int { return int(uint32(u)*0x9E3779B1>>26) & (numShards - 1) }

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// slot is one user's state. user is written once, before the slot index
// is published; everything else is atomic or guarded by a mutex.
type slot struct {
	user core.UserID
	// live is set once, under both rosterMu and mu, when the user
	// registers, so it is stable under either and can also be read
	// atomically.
	live atomic.Bool
	mu   sync.Mutex
	p    core.Profile // guarded by mu; set once live
	row  atomic.Pointer[knnRow]
	frag wire.FragmentCell
}

// profile returns the slot's registered profile and whether it has one.
func (s *slot) profile() (core.Profile, bool) {
	s.mu.Lock()
	p, ok := s.p, s.live.Load()
	s.mu.Unlock()
	return p, ok
}

// knnRow is an immutable KNN row: the neighbours' slot indices, in rank
// order. A neighbour's user is her slot's user field, written once.
type knnRow struct {
	slots []uint32
}

// slotTable is the slot store behind ProfileTable and KNNTable. Safe for
// concurrent use.
type slotTable struct {
	// chunks is the published chunk directory; it grows by copy under
	// growMu, and a chunk, once published, never moves.
	chunks atomic.Pointer[[]*[chunkSize]slot]
	n      atomic.Uint32 // slots minted
	growMu sync.Mutex

	index [numShards]indexShard

	// rosterMu guards the roster and every registration; a live slot's
	// profile updates take only the slot's mutex.
	rosterMu sync.RWMutex
	// roster is the dense, append-only list of registered slots, so
	// uniform random draws are O(1) per pick.
	roster []uint32

	rows atomic.Int64 // slots holding a KNN row
}

type indexShard struct {
	mu sync.RWMutex
	m  map[core.UserID]uint32
}

func newSlotTable() *slotTable {
	t := &slotTable{}
	for i := range t.index {
		t.index[i].m = make(map[core.UserID]uint32)
	}
	t.chunks.Store(new([]*[chunkSize]slot))
	return t
}

// at returns slot i, which must have been minted.
func (t *slotTable) at(i uint32) *slot { return &(*t.chunks.Load())[i>>chunkBits][i&chunkMask] }

// noSlot is an index no slot has: mint never gets that far.
const noSlot = ^uint32(0)

// find returns u's slot index, or noSlot when the engine never
// referenced her.
func (t *slotTable) find(u core.UserID) uint32 {
	sh := &t.index[shardOf(u)]
	sh.mu.RLock()
	i, ok := sh.m[u]
	sh.mu.RUnlock()
	if !ok {
		return noSlot
	}
	return i
}

// lookup returns u's slot, or nil when the engine never referenced her.
func (t *slotTable) lookup(u core.UserID) *slot {
	if i := t.find(u); i != noSlot {
		return t.at(i)
	}
	return nil
}

// mint returns u's slot index, allocating the next slot on first
// reference.
func (t *slotTable) mint(u core.UserID) uint32 {
	sh := &t.index[shardOf(u)]
	sh.mu.RLock()
	i, ok := sh.m[u]
	sh.mu.RUnlock()
	if ok {
		return i
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.m[u]; ok {
		return i
	}
	t.growMu.Lock()
	i = t.n.Load()
	dir := *t.chunks.Load()
	if int(i>>chunkBits) == len(dir) {
		dir = append(dir[:len(dir):len(dir)], new([chunkSize]slot))
		t.chunks.Store(&dir)
	}
	dir[i>>chunkBits][i&chunkMask].user = u
	t.n.Store(i + 1)
	t.growMu.Unlock()
	sh.m[u] = i
	return i
}

// update applies fn to slot i's profile under the slot's mutex and
// stores the result, registering an unregistered slot.
func (t *slotTable) update(i uint32, fn func(core.Profile) core.Profile) core.Profile {
	s := t.at(i)
	s.mu.Lock()
	if s.live.Load() {
		s.p = fn(s.p)
		p := s.p
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	t.rosterMu.Lock()
	defer t.rosterMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live.Load() { // registered by a racing writer since the first check
		s.p = fn(s.p)
	} else {
		s.p = fn(core.NewProfile(s.user))
		t.enroll(i, s)
	}
	return s.p
}

// enroll registers slot s (index i) — state and roster entry — holding
// rosterMu and s.mu.
func (t *slotTable) enroll(i uint32, s *slot) {
	s.live.Store(true)
	t.roster = append(t.roster, i)
}

// register gives slot i an empty profile unless it is registered.
func (t *slotTable) register(i uint32) {
	s := t.at(i)
	if s.live.Load() {
		return
	}
	t.rosterMu.Lock()
	s.mu.Lock()
	if !s.live.Load() {
		s.p = core.NewProfile(s.user)
		t.enroll(i, s)
	}
	s.mu.Unlock()
	t.rosterMu.Unlock()
}

// profileOf returns s's registered profile, or an empty one.
func profileOf(s *slot, u core.UserID) core.Profile {
	if s != nil {
		if p, ok := s.profile(); ok {
			return p
		}
	}
	return core.NewProfile(u)
}

// draw appends to dst up to n distinct registered slots drawn uniformly
// with rng (with replacement across calls), skipping exclude's slot, and
// reports the roster size. Attempts are capped so a tiny population
// cannot loop forever.
func (t *slotTable) draw(dst []uint32, rng *rand.Rand, n int, exclude core.UserID) ([]uint32, int) {
	t.rosterMu.RLock()
	defer t.rosterMu.RUnlock()
	total := len(t.roster)
	if total == 0 || n <= 0 {
		return dst, total
	}
	base := len(dst)
	for attempts := 0; len(dst)-base < n && attempts < 8*n; attempts++ {
		i := t.roster[rng.Intn(total)]
		if t.at(i).user == exclude || slices.Contains(dst[base:], i) {
			continue
		}
		dst = append(dst, i)
	}
	return dst, total
}

// users maps slot indices to their users.
func (t *slotTable) users(idx []uint32) []core.UserID {
	out := make([]core.UserID, len(idx))
	for j, i := range idx {
		out[j] = t.at(i).user
	}
	return out
}

// newRow builds the row for users, minting a slot for every neighbour.
// It keeps nothing of users.
func (t *slotTable) newRow(users []core.UserID) *knnRow {
	r := &knnRow{slots: make([]uint32, len(users))}
	for j, v := range users {
		r.slots[j] = t.mint(v)
	}
	return r
}

// ProfileTable is the server's global user → profile table, a view over
// the engine's slot table. It also keeps the dense roster of registered
// users the Sampler draws random users from; the roster is strictly
// duplicate-free, so re-storing a user can never grow it and skew the
// uniform sampling toward old users. Safe for concurrent use.
type ProfileTable struct{ t *slotTable }

// NewProfileTable returns an empty table over a slot table of its own.
func NewProfileTable() *ProfileTable { return &ProfileTable{newSlotTable()} }

// Get returns the current profile snapshot of u. Unknown users get a fresh
// empty profile (HyRec treats first contact as an empty-profile user).
func (pt *ProfileTable) Get(u core.UserID) core.Profile { return profileOf(pt.t.lookup(u), u) }

// Known reports whether u is registered.
func (pt *ProfileTable) Known(u core.UserID) bool {
	s := pt.t.lookup(u)
	return s != nil && s.live.Load()
}

// Put stores a profile snapshot, registering the user on first sight.
func (pt *ProfileTable) Put(p core.Profile) {
	pt.t.update(pt.t.mint(p.User()), func(core.Profile) core.Profile { return p })
}

// Update applies fn to u's profile atomically with respect to other
// writes of the same user, and returns the new snapshot. fn runs under
// the user's slot mutex and must not call back into the table.
func (pt *ProfileTable) Update(u core.UserID, fn func(core.Profile) core.Profile) core.Profile {
	return pt.t.update(pt.t.mint(u), fn)
}

// Len returns the number of registered users.
func (pt *ProfileTable) Len() int {
	pt.t.rosterMu.RLock()
	defer pt.t.rosterMu.RUnlock()
	return len(pt.t.roster)
}

// RandomUsers draws n users uniformly (with replacement across draws, but
// without duplicates in one call), excluding `exclude`. Fewer than n are
// returned when the population is too small; nil when it is empty.
func (pt *ProfileTable) RandomUsers(rng *rand.Rand, n int, exclude core.UserID) []core.UserID {
	idx, total := pt.t.draw(nil, rng, n, exclude)
	if total == 0 || n <= 0 {
		return nil
	}
	return pt.t.users(idx)
}

// ForEach invokes fn on every registered user's profile, in slot order.
func (pt *ProfileTable) ForEach(fn func(core.Profile)) {
	t := pt.t
	for i, n := uint32(0), t.n.Load(); i < n; i++ {
		if p, ok := t.at(i).profile(); ok {
			fn(p)
		}
	}
}

// Users returns a copy of the user roster.
func (pt *ProfileTable) Users() []core.UserID {
	pt.t.rosterMu.RLock()
	defer pt.t.rosterMu.RUnlock()
	return pt.t.users(pt.t.roster)
}

// KNNTable is the server's global user → current-KNN-approximation
// table, a view over the engine's slot table. Safe for concurrent use.
type KNNTable struct{ t *slotTable }

// NewKNNTable returns an empty table over a slot table of its own.
func NewKNNTable() *KNNTable { return &KNNTable{newSlotTable()} }

// Get returns the current neighbors of u in a fresh slice the caller
// owns, or nil when u has no row.
func (kt *KNNTable) Get(u core.UserID) []core.UserID {
	if s := kt.t.lookup(u); s != nil {
		if r := s.row.Load(); r != nil {
			return kt.t.users(r.slots)
		}
	}
	return nil
}

// Put replaces u's neighbor list. The row holds the neighbours' slot
// indices, so nothing of neighbors is kept: the caller may reuse it.
func (kt *KNNTable) Put(u core.UserID, neighbors []core.UserID) {
	t := kt.t
	if t.at(t.mint(u)).row.Swap(t.newRow(neighbors)) == nil {
		t.rows.Add(1)
	}
}

// PutIfAbsent stores u's neighbor list only when none is present,
// reporting whether it stored; like Put it keeps nothing of neighbors.
// The check and the store are one compare-and-swap, so an import racing
// a concurrent fold-in can never clobber the fresher row (the
// "destination wins" merge contract).
func (kt *KNNTable) PutIfAbsent(u core.UserID, neighbors []core.UserID) bool {
	t := kt.t
	s := t.at(t.mint(u))
	if s.row.Load() != nil || !s.row.CompareAndSwap(nil, t.newRow(neighbors)) {
		return false
	}
	t.rows.Add(1)
	return true
}

// Len returns the number of users with a stored neighborhood.
func (kt *KNNTable) Len() int { return int(kt.t.rows.Load()) }

// idSet is the candidate walk's dedup set: open addressing over slot
// indices with generation-stamped buckets, so reset is O(1) and a pooled
// set allocates only when a walk outgrows every earlier one.
type idSet struct {
	keys  []uint32
	gens  []uint32
	gen   uint32
	n     int
	shift uint // 32 - log2(len(keys)): a bucket is the hash's top bits
}

// reset empties the set.
func (s *idSet) reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.gens)
		s.gen = 1
	}
	s.n = 0
}

// add inserts v, reporting whether it was absent.
func (s *idSet) add(v uint32) bool {
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	mask := uint32(len(s.keys) - 1)
	for i := v * 0x9E3779B1 >> s.shift; ; i = (i + 1) & mask {
		if s.gens[i] != s.gen {
			s.gens[i], s.keys[i] = s.gen, v
			s.n++
			return true
		}
		if s.keys[i] == v {
			return false
		}
	}
}

// grow doubles the table (minimum 256 buckets) and re-inserts the live
// entries.
func (s *idSet) grow() {
	keys, gens, gen := s.keys, s.gens, s.gen
	size := max(256, 2*len(keys))
	s.keys, s.gens, s.gen, s.n = make([]uint32, size), make([]uint32, size), 1, 0
	s.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for i, g := range gens {
		if g == gen {
			s.add(keys[i])
		}
	}
}
