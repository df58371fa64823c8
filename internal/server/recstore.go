package server

import (
	"sync"

	"hyrec/internal/core"
)

// defaultRecCapacity bounds the per-user last-recommendations store. A
// long-lived server under user churn would otherwise grow one entry per
// user ever seen; recommendations older than the eviction horizon are
// recomputed on the next personalization cycle anyway.
const defaultRecCapacity = 4096

// recStore is a fixed-capacity LRU of each user's most recent
// recommendations. Safe for concurrent use.
//
// The recency list is intrusive and array-backed: an entry is one
// element of entries, linked by index, so a retained user costs no
// allocation beyond her recommendation list, and the index map holds no
// pointer for the collector to scan. An evicted entry is reused in
// place.
type recStore struct {
	mu         sync.Mutex
	cap        int
	entries    []recEntry            // grows to cap
	idx        map[core.UserID]int32 // user → her entry
	head, tail int32                 // most and least recently used, -1 when empty
}

type recEntry struct {
	recs       []core.ItemID
	user       core.UserID
	prev, next int32 // neighbours in recency order, -1 at either end
}

// newRecStore builds a store retaining the last capacity users
// (defaultRecCapacity when capacity <= 0).
func newRecStore(capacity int) *recStore {
	if capacity <= 0 {
		capacity = defaultRecCapacity
	}
	return &recStore{
		cap:  capacity,
		idx:  make(map[core.UserID]int32, capacity),
		head: -1,
		tail: -1,
	}
}

// Put records u's latest recommendations, evicting the least recently
// used entry when the store is full.
func (s *recStore) Put(u core.UserID, recs []core.ItemID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.idx[u]; ok {
		s.entries[i].recs = recs
		s.touch(i)
		return
	}
	s.insert(u, recs)
}

// Get returns u's last recommendations (nil when unknown or evicted) and
// refreshes its recency.
func (s *recStore) Get(u core.UserID) []core.ItemID {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[u]
	if !ok {
		return nil
	}
	s.touch(i)
	return s.entries[i].recs
}

// PutIfAbsent records u's recommendations only when none are retained,
// reporting whether it stored — atomic, so a state import can never
// clobber a fresher entry a concurrent fold-in just wrote.
func (s *recStore) PutIfAbsent(u core.UserID, recs []core.ItemID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[u]; ok {
		return false
	}
	s.insert(u, recs)
	return true
}

// Len reports the number of retained users.
func (s *recStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// insert adds u, absent, as the most recently used entry: a new element
// while the store is below capacity, else the least recently used
// entry's, which is evicted.
func (s *recStore) insert(u core.UserID, recs []core.ItemID) {
	var i int32
	if len(s.entries) < s.cap {
		i = int32(len(s.entries))
		s.entries = append(s.entries, recEntry{})
	} else {
		i = s.tail
		delete(s.idx, s.entries[i].user)
		s.unlink(i)
	}
	s.entries[i] = recEntry{recs: recs, user: u, prev: -1, next: -1}
	s.idx[u] = i
	s.pushFront(i)
}

// touch makes entry i the most recently used.
func (s *recStore) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *recStore) unlink(i int32) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (s *recStore) pushFront(i int32) {
	e := &s.entries[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}
