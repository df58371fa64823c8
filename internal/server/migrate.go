package server

import (
	"hyrec/internal/core"
)

// This file is the engine-level user-state transfer surface: everything
// a node handoff, a replica stream or a snapshot replay needs to move
// one user's state between engines. The unit is UserState — profile,
// KNN row, retained recommendations — and the operations are Export
// (read) and Import (a merge-write, or a verbatim install on a mirror).
// The engine itself has no notion of topology; ordering and routing are
// the caller's problem (internal/node, internal/persist).

// UserState is one user's complete transferable state.
type UserState struct {
	// Profile is the authoritative opinion record (it subsumes the
	// ratings roster: registration is implied by the profile's presence).
	Profile core.Profile
	// Neighbors is the user's current KNN approximation (nil when none).
	Neighbors []core.UserID
	// Recs is the pending last-recommendations cache entry (nil when
	// none retained).
	Recs []core.ItemID
}

// ExportUsers snapshots the state of every listed user that this engine
// knows. Unknown users are skipped (the caller treats an absent entry as
// "nothing to move"). The export is per-user
// consistent — profiles are immutable snapshots — but not transactional
// across users, matching the persist layer's contract.
func (e *Engine) ExportUsers(users []core.UserID) []UserState {
	out := make([]UserState, 0, len(users))
	for _, u := range users {
		if !e.profiles.Known(u) {
			continue
		}
		out = append(out, UserState{
			Profile:   e.profiles.Get(u),
			Neighbors: e.knn.Get(u),
			Recs:      e.recs.Get(u),
		})
	}
	return out
}

// ImportUsers merges exported user state into this engine's tables.
// Merge semantics make the call safe while live traffic is already
// routed here: opinions the destination recorded since routing flipped
// (they are newer than the export) win over the imported snapshot, and
// a KNN row or recommendation entry the destination already holds is
// kept over the imported one for the same reason. Importing into an
// engine that has never seen the user stores the exported state
// verbatim — the restore path of the persist layer's topology replay.
func (e *Engine) ImportUsers(states []UserState) {
	for _, st := range states {
		u := st.Profile.User()
		e.profiles.Update(u, func(cur core.Profile) core.Profile {
			return mergeProfiles(st.Profile, cur)
		})
		if len(st.Neighbors) > 0 {
			e.knn.PutIfAbsent(u, st.Neighbors)
		}
		if len(st.Recs) > 0 {
			e.recs.PutIfAbsent(u, st.Recs)
		}
		if e.sched != nil {
			// The moved row was computed against another engine's
			// candidate pool; queue a refresh so it re-converges against
			// this one's.
			e.sched.MarkStale(u)
		}
	}
}

// ImportUsersSnapshot installs exported state verbatim: profile, KNN
// row and recommendation cache replace whatever the engine holds. This
// is the replica-mirror discipline — a mirror's only writer is its
// primary's replication stream, and the caller (internal/node) routes
// only each user's newest-known record here, dropping older ones at its
// recency gate — so installing the snapshot converges the mirror to the
// primary's state regardless of delivery order or duplication. Engines
// taking live writes must use ImportUsers' merge instead. Like
// MirrorRatings it queues no refresh: promotion queues every user.
func (e *Engine) ImportUsersSnapshot(states []UserState) {
	for _, st := range states {
		u := st.Profile.User()
		e.profiles.Put(st.Profile)
		if len(st.Neighbors) > 0 {
			e.knn.Put(u, st.Neighbors)
		}
		if len(st.Recs) > 0 {
			e.recs.Put(u, st.Recs)
		}
	}
}

// MirrorRatings records ratings in the profiles alone, grouped by user as
// RateBatch groups them, and queues no refresh: the apply of a standby
// mirror, whose scheduler dispatches nothing. The node plane marks every
// user of a partition stale when it promotes the mirror, so a queue
// built while mirroring would only cost memory and CPU until then.
func (e *Engine) MirrorRatings(ratings []core.Rating) {
	g := groupByUser(ratings)
	defer g.release()
	for k, u := range g.users {
		run := g.run(k)
		e.profiles.Update(u, func(p core.Profile) core.Profile { return p.WithRatings(run) })
	}
}

// MarkStale queues a KNN refresh for u (no-op without the scheduler) —
// the node plane's hook for a promoted partition's users, whose refresh
// cycles ran on the previous primary.
func (e *Engine) MarkStale(u core.UserID) {
	if e.sched != nil {
		e.sched.MarkStale(u)
	}
}

// mergeProfiles layers the destination's opinions (cur, recorded after
// routing flipped — strictly newer) over the exported snapshot (old).
// With no destination opinions the exported profile is returned as-is,
// preserving byte-level equality on the pure-restore path.
func mergeProfiles(old, cur core.Profile) core.Profile {
	if cur.Size() == 0 {
		return old
	}
	run := make([]core.Rating, 0, cur.Size())
	for _, it := range cur.Liked() {
		run = append(run, core.Rating{User: cur.User(), Item: it, Liked: true})
	}
	for _, it := range cur.Disliked() {
		run = append(run, core.Rating{User: cur.User(), Item: it, Liked: false})
	}
	return old.WithRatings(run)
}
