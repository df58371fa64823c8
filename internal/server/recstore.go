package server

import (
	"container/list"
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
type recStore struct {
	mu  sync.Mutex
	cap int
	ll  *list.List                    // front = most recently used
	idx map[core.UserID]*list.Element // user → element in ll
}

type recEntry struct {
	user core.UserID
	recs []core.ItemID
}

// newRecStore builds a store retaining the last capacity users
// (defaultRecCapacity when capacity <= 0).
func newRecStore(capacity int) *recStore {
	if capacity <= 0 {
		capacity = defaultRecCapacity
	}
	return &recStore{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[core.UserID]*list.Element, capacity),
	}
}

// Put records u's latest recommendations, evicting the least recently
// used entry when the store is full.
func (s *recStore) Put(u core.UserID, recs []core.ItemID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[u]; ok {
		el.Value.(*recEntry).recs = recs
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.idx, oldest.Value.(*recEntry).user)
		}
	}
	s.idx[u] = s.ll.PushFront(&recEntry{user: u, recs: recs})
}

// Get returns u's last recommendations (nil when unknown or evicted) and
// refreshes its recency.
func (s *recStore) Get(u core.UserID) []core.ItemID {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[u]
	if !ok {
		return nil
	}
	s.ll.MoveToFront(el)
	return el.Value.(*recEntry).recs
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
	if s.ll.Len() >= s.cap {
		if oldest := s.ll.Back(); oldest != nil {
			s.ll.Remove(oldest)
			delete(s.idx, oldest.Value.(*recEntry).user)
		}
	}
	s.idx[u] = s.ll.PushFront(&recEntry{user: u, recs: recs})
	return true
}

// Len reports the number of retained users.
func (s *recStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
