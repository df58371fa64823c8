package server

import (
	"hyrec/internal/core"
)

// This file is the engine-level user-state migration surface: everything
// a cluster's resharding coordinator needs to stream one user's state
// from the partition that used to own her to the one that owns her now.
// The unit of migration is UserState — profile, KNN row, retained
// recommendations — and the three operations are Export (read), Import
// (merge-write on the destination) and Remove (delete on the source).
// The engine itself has no notion of topology; ordering and routing are
// the coordinator's problem (internal/cluster).

// UserState is one user's complete migratable state.
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

// ExportUsers snapshots the migratable state of every listed user that
// this engine knows. Unknown users are skipped (the coordinator treats
// an absent entry as "nothing to move"). The export is per-user
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
		// A user can move back to an engine that entombed her in an
		// earlier migration; lift the write block first.
		e.profiles.Exhume(u)
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
			// The moved row was computed against the old partition's
			// candidate pool; queue a refresh so it re-converges against
			// the new neighbourhood.
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
// taking live writes must use ImportUsers' merge instead.
func (e *Engine) ImportUsersSnapshot(states []UserState) {
	for _, st := range states {
		u := st.Profile.User()
		e.profiles.Exhume(u)
		e.profiles.Put(st.Profile)
		if len(st.Neighbors) > 0 {
			e.knn.Put(u, st.Neighbors)
		}
		if len(st.Recs) > 0 {
			e.recs.Put(u, st.Recs)
		}
		if e.sched != nil {
			e.sched.MarkStale(u)
		}
	}
}

// RemoveUsers deletes every listed user's state — profile (and roster
// entry), KNN row and retained recommendations. The migration
// coordinator calls this on the source partition after the destination
// confirmed the import. The profile entry is entombed, not merely
// deleted: a racing writer that pinned the pre-migration topology and
// lands its update after this call is dropped here (its opinion has
// already been re-applied on the new owner by the cluster's routing
// re-check), so a drained entry can never resurrect and serve stale
// bytes. A later migration that moves the user back lifts the block
// via ImportUsers.
func (e *Engine) RemoveUsers(users []core.UserID) {
	for _, u := range users {
		e.profiles.Entomb(u)
		e.knn.Delete(u)
		e.recs.Delete(u)
	}
}

// MarkStale queues a KNN refresh for u (no-op without the scheduler) —
// the coordinator's hook for users whose refresh cycle was evicted from
// the source partition's scheduler mid-move.
func (e *Engine) MarkStale(u core.UserID) {
	if e.sched != nil {
		e.sched.MarkStale(u)
	}
}

// ClearTombstones lifts all migration write blocks (see
// ProfileTable.ClearTombs) — called by the coordinator at the start of
// the next migration so tombstones stay bounded.
func (e *Engine) ClearTombstones() { e.profiles.ClearTombs() }

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
