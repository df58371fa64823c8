package server

import (
	"context"
	"testing"

	"hyrec/internal/core"
)

func migCtx() context.Context { return context.Background() }

// TestExportImportRoundTrip: exporting users from one engine and
// importing them into a fresh one reproduces profiles byte-for-byte and
// carries KNN rows and retained recommendations along.
func TestExportImportRoundTrip(t *testing.T) {
	src := NewEngine(DefaultConfig())
	dst := NewEngine(DefaultConfig())
	ctx := migCtx()

	users := []core.UserID{3, 7, 11}
	for _, u := range users {
		for j := 0; j < 4; j++ {
			src.Rate(ctx, u, core.ItemID(uint32(u)*10+uint32(j)), j%2 == 0)
		}
		src.KNN().Put(u, []core.UserID{u + 1, u + 2})
		src.recs.Put(u, []core.ItemID{core.ItemID(u * 100)})
	}

	states := src.ExportUsers(append(users, 9999)) // 9999 unknown: skipped
	if len(states) != len(users) {
		t.Fatalf("exported %d states, want %d", len(states), len(users))
	}
	dst.ImportUsers(states)

	for _, u := range users {
		if !dst.KnownUser(u) {
			t.Fatalf("user %d not known after import", u)
		}
		sp, dp := src.Profiles().Get(u), dst.Profiles().Get(u)
		if !sp.Equal(dp) {
			t.Fatalf("user %d: profile diverged: %v vs %v", u, sp, dp)
		}
		hood, _ := dst.Neighbors(ctx, u)
		if len(hood) != 2 || hood[0] != u+1 || hood[1] != u+2 {
			t.Fatalf("user %d: KNN row not imported: %v", u, hood)
		}
		recs, _ := dst.Recommendations(ctx, u, 0)
		if len(recs) != 1 || recs[0] != core.ItemID(u*100) {
			t.Fatalf("user %d: recs not imported: %v", u, recs)
		}
	}
}

// TestImportMergePrefersDestination: opinions the destination recorded
// after routing flipped (newer than the export) survive the import —
// including a flip of the same item — and a KNN row the destination
// already refreshed is kept.
func TestImportMergePrefersDestination(t *testing.T) {
	src := NewEngine(DefaultConfig())
	dst := NewEngine(DefaultConfig())
	ctx := migCtx()
	const u = core.UserID(42)

	src.Rate(ctx, u, 1, true)
	src.Rate(ctx, u, 2, true) // will be flipped on dst
	src.KNN().Put(u, []core.UserID{7})

	// Destination state recorded after the routing flip.
	dst.Rate(ctx, u, 2, false) // flip: newer opinion wins
	dst.Rate(ctx, u, 3, true)  // new item
	dst.KNN().Put(u, []core.UserID{9})

	dst.ImportUsers(src.ExportUsers([]core.UserID{u}))

	p := dst.Profiles().Get(u)
	if !p.LikedContains(1) {
		t.Fatal("imported opinion (item 1) lost")
	}
	if p.LikedContains(2) {
		t.Fatal("destination's flip of item 2 overwritten by the import")
	}
	if !p.Contains(2) {
		t.Fatal("item 2 vanished entirely")
	}
	if !p.LikedContains(3) {
		t.Fatal("destination's new opinion (item 3) lost")
	}
	hood, _ := dst.Neighbors(ctx, u)
	if len(hood) != 1 || hood[0] != 9 {
		t.Fatalf("destination's fresher KNN row overwritten: %v", hood)
	}
}

// TestRemoveUsers: removal deletes profile, roster entry, KNN row and
// rec cache; the roster swap keeps every other user sampleable exactly
// once; and the copy-on-write view layer observes the deletion.
func TestRemoveUsers(t *testing.T) {
	e := NewEngine(DefaultConfig())
	ctx := migCtx()
	for u := core.UserID(1); u <= 20; u++ {
		e.Rate(ctx, u, core.ItemID(u), true)
		e.KNN().Put(u, []core.UserID{u%20 + 1})
	}
	// Warm the view so the rebuild path (not the cold build) is what
	// the deletion exercises.
	if _, _, err := e.AppendJobPayload(tctx, 5, nil, nil); err != nil {
		t.Fatal(err)
	}

	victims := []core.UserID{5, 10, 15}
	e.RemoveUsers(victims)

	for _, u := range victims {
		if e.KnownUser(u) {
			t.Fatalf("user %d still known after removal", u)
		}
		if hood := e.KNN().Get(u); hood != nil {
			t.Fatalf("user %d KNN row survived removal: %v", u, hood)
		}
		if recs, _ := e.Recommendations(ctx, u, 0); len(recs) != 0 {
			t.Fatalf("user %d recs survived removal: %v", u, recs)
		}
	}
	if got := e.Profiles().Len(); got != 17 {
		t.Fatalf("roster length %d after removing 3 of 20", got)
	}
	seen := map[core.UserID]int{}
	for _, u := range e.Profiles().Users() {
		seen[u]++
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("user %d appears %d times in roster after swap-remove", u, n)
		}
	}
	for _, v := range victims {
		if _, ok := seen[v]; ok {
			t.Fatalf("removed user %d still in roster", v)
		}
	}
	// The view layer must never hand a deleted user to a sampler: draw
	// a large batch through the snapshot path and check.
	for i := 0; i < 50; i++ {
		for _, u := range e.RandomUsers(10, 0) {
			if u == 5 || u == 10 || u == 15 {
				t.Fatalf("deleted user %d surfaced from the post-delete view roster", u)
			}
		}
	}
}

// TestRosterDeleteThenRegisterSameLength: a deletion followed by a
// registration nets the roster length out — the generation counter,
// not the length, is what invalidates the view's roster copy.
func TestRosterDeleteThenRegisterSameLength(t *testing.T) {
	e := NewEngine(DefaultConfig())
	ctx := migCtx()
	for u := core.UserID(1); u <= 8; u++ {
		e.Rate(ctx, u, 1, true)
	}
	if _, _, err := e.AppendJobPayload(tctx, 1, nil, nil); err != nil { // publish a view
		t.Fatal(err)
	}
	e.RemoveUsers([]core.UserID{4})
	e.Rate(ctx, 100, 1, true) // same roster length as before

	// A fresh draw must be able to see user 100 and never user 4.
	saw100 := false
	for i := 0; i < 200 && !saw100; i++ {
		for _, u := range e.RandomUsers(7, 0) {
			if u == 4 {
				t.Fatal("deleted user 4 drawn from a stale view roster")
			}
			if u == 100 {
				saw100 = true
			}
		}
	}
	if !saw100 {
		t.Fatal("newly registered user never drawn; view roster stuck on stale copy")
	}
}

// TestRemoveUsersBlocksResurrection: after a migration removes a user,
// a straggler write (from a racer that pinned the old topology) cannot
// resurrect the drained entry — but a later import moving the user
// back lifts the block.
func TestRemoveUsersBlocksResurrection(t *testing.T) {
	e := NewEngine(DefaultConfig())
	ctx := migCtx()
	const u = core.UserID(8)
	e.Rate(ctx, u, 1, true)
	st := e.ExportUsers([]core.UserID{u})
	e.RemoveUsers([]core.UserID{u})

	e.Rate(ctx, u, 2, true) // straggler write
	if e.KnownUser(u) {
		t.Fatal("straggler write resurrected a removed user")
	}
	e.RegisterUser(u)
	if e.KnownUser(u) {
		t.Fatal("straggler registration resurrected a removed user")
	}

	// The user moves back: import lifts the block, writes work again.
	e.ImportUsers(st)
	if !e.KnownUser(u) || !e.Profiles().Get(u).LikedContains(1) {
		t.Fatal("re-import after entombment failed")
	}
	e.Rate(ctx, u, 3, true)
	if !e.Profiles().Get(u).LikedContains(3) {
		t.Fatal("writes still blocked after re-import")
	}
}
