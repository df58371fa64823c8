package server

import (
	"math/bits"
	"slices"
	"sync"

	"hyrec/internal/core"
)

// userRuns is a rating batch grouped by user, leaving the batch itself
// untouched: users lists its distinct users in order of first
// appearance, and run(k) is users[k]'s ratings in batch order. Ingest
// batches name each user several times (a 128-rating Digg batch names
// ~37 users), so grouping lets the engine copy a profile, and the
// server record presence, once per user instead of once per rating.
type userRuns struct {
	users  []core.UserID
	ends   []int32       // run k is byUser[ends[k-1]:ends[k]] (ends[-1] = 0)
	byUser []core.Rating // the batch, counting-sorted by user
	userOf []int32       // per rating: its user's index in users
	table  []int32       // open-addressed uid hash: users index + 1, 0 = empty
}

// maxPooledRun caps the batch whose scratch is pooled, so one huge
// batch (a restore, a re-ship) does not pin its buffers forever.
const maxPooledRun = 1 << 14

var runsPool = sync.Pool{New: func() any { return new(userRuns) }}

// groupByUser groups ratings by user. Hand the result back with release.
func groupByUser(ratings []core.Rating) *userRuns {
	g := runsPool.Get().(*userRuns)
	g.group(ratings)
	return g
}

// release hands g's scratch back to the pool.
func (g *userRuns) release() {
	if cap(g.byUser) <= maxPooledRun {
		runsPool.Put(g)
	}
}

// run returns user k's ratings (valid until release).
func (g *userRuns) run(k int) []core.Rating {
	start := int32(0)
	if k > 0 {
		start = g.ends[k-1]
	}
	return g.byUser[start:g.ends[k]]
}

// group fills g with ratings' runs: one hash-table pass that numbers the
// users and counts their ratings, then one counting-sort scatter.
func (g *userRuns) group(ratings []core.Rating) {
	n := len(ratings)
	logSize := max(bits.Len(uint(2*n)), 4) // more than 2n slots, so probes stay short
	size, mask := 1<<logSize, uint32(1<<logSize-1)
	g.table = slices.Grow(g.table[:0], size)[:size]
	clear(g.table)
	g.users, g.ends = g.users[:0], g.ends[:0]
	g.userOf = slices.Grow(g.userOf[:0], n)[:n]
	for i, r := range ratings {
		h := uint32(r.User) * 0x9E3779B1 >> (32 - logSize)
		for {
			k := g.table[h]
			if k == 0 {
				g.users = append(g.users, r.User)
				g.ends = append(g.ends, 0)
				k = int32(len(g.users))
				g.table[h] = k
			} else if g.users[k-1] != r.User {
				h = (h + 1) & mask
				continue
			}
			g.userOf[i] = k - 1
			g.ends[k-1]++
			break
		}
	}
	// Counts to starts, then scatter: each start advances to its run's end.
	sum := int32(0)
	for k, c := range g.ends {
		g.ends[k] = sum
		sum += c
	}
	g.byUser = slices.Grow(g.byUser[:0], n)[:n]
	for i, r := range ratings {
		k := g.userOf[i]
		g.byUser[g.ends[k]] = r
		g.ends[k]++
	}
}
