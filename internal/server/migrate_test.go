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
