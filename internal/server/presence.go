package server

import (
	"sync"
	"time"

	"hyrec/internal/core"
)

// presenceWindow is how recently a user must have been seen to count as
// online in /stats. Section 2.4's argument for the hybrid design is that
// the central entity "can effectively manage dynamic connections and
// disconnections of users"; this tracker is that management surface.
const presenceWindow = 5 * time.Minute

// presence records per-user last-contact times. Safe for concurrent use.
// The clock is injectable for tests. A time is kept as nanoseconds since
// base, the clock reading at construction, so the map's values are
// 8 bytes and hold no pointer for the collector to scan.
type presence struct {
	mu   sync.RWMutex
	last map[core.UserID]int64
	base time.Time
	now  func() time.Time
}

func newPresence() *presence {
	return &presence{last: make(map[core.UserID]int64), base: time.Now(), now: time.Now}
}

// Touch records contact from users, under one lock and one clock read.
func (p *presence) Touch(users ...core.UserID) {
	now := int64(p.now().Sub(p.base))
	p.mu.Lock()
	for _, u := range users {
		p.last[u] = now
	}
	p.mu.Unlock()
}

// LastSeen returns u's most recent contact time (zero if never seen).
func (p *presence) LastSeen(u core.UserID) time.Time {
	p.mu.RLock()
	at, ok := p.last[u]
	p.mu.RUnlock()
	if !ok {
		return time.Time{}
	}
	return p.base.Add(time.Duration(at))
}

// Online counts users seen within the presence window. It also prunes
// entries older than ten windows so the map tracks the active population,
// not the all-time one.
func (p *presence) Online(window time.Duration) int {
	now := int64(p.now().Sub(p.base))
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for u, at := range p.last {
		switch age := time.Duration(now - at); {
		case age <= window:
			n++
		case age > 10*window:
			delete(p.last, u)
		}
	}
	return n
}
