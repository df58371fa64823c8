package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/server"
)

// fixturePath is the committed 2-partition snapshot fixture (64 churned
// users, seed 42, one widget-refreshed KNN row each) that pins the
// on-disk format across topology changes.
const fixturePath = "testdata/topology/cluster2.snap"

// TestRestoreFixtureIntoLargerCluster is the satellite acceptance test:
// the committed 2-partition fixture restores into a 3-partition cluster
// via migration replay, and every user's profile comes out byte-level
// identical to the frame that stored it.
func TestRestoreFixtureIntoLargerCluster(t *testing.T) {
	snaps, err := LoadClusterAny(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("fixture holds %d frames, want 2", len(snaps))
	}

	cfg := server.DefaultConfig()
	cfg.Seed = 42
	c := cluster.New(cfg, 3)
	defer c.Close()
	if err := RestoreCluster(c, snaps); err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, s := range snaps {
		for _, rec := range s.Users {
			total++
			u := core.UserID(rec.ID)
			owner := c.Partition(u)
			for i := 0; i < 3; i++ {
				if c.Engine(i).KnownUser(u) != (i == owner) {
					t.Fatalf("user %d: stored-on-%d=%v, ring owner %d", rec.ID, i, c.Engine(i).KnownUser(u), owner)
				}
			}
			// Byte-level equality: re-encode the restored profile as a
			// snapshot record and compare with the fixture's bytes.
			p := c.Profile(u)
			got, err := json.Marshal(UserRecord{ID: rec.ID, Liked: toUint32(p.Liked()), Disliked: toUint32(p.Disliked())})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("user %d: profile not byte-identical after replay:\nwant %s\ngot  %s", rec.ID, want, got)
			}
		}
		// KNN rows follow their users to the new owner.
		for _, rec := range s.KNN {
			hood, err := c.Neighbors(context.Background(), core.UserID(rec.ID))
			if err != nil {
				t.Fatal(err)
			}
			if len(hood) != len(rec.Neighbors) {
				t.Fatalf("user %d: KNN row %v restored as %v", rec.ID, rec.Neighbors, hood)
			}
			for i := range hood {
				if uint32(hood[i]) != rec.Neighbors[i] {
					t.Fatalf("user %d: KNN row %v restored as %v", rec.ID, rec.Neighbors, hood)
				}
			}
		}
	}
	if total == 0 || c.Len() != total {
		t.Fatalf("restored population %d, fixture holds %d", c.Len(), total)
	}
	// The replayed cluster keeps serving.
	churnCluster(t, c, 16)
}

// TestSaveScaledRestoreExact: a cluster reshaped 2→3 — a 2-partition
// cluster's state replayed into one built with 3 partitions, as a
// restart at a different partition count does — saves frames whose
// stamps match its topology, and a fresh 3-partition cluster restores
// them on the direct (stamp-matched) path with identical placement.
func TestSaveScaledRestoreExact(t *testing.T) {
	cfg := server.DefaultConfig()
	narrow := cluster.New(cfg, 2)
	defer narrow.Close()
	churnCluster(t, narrow, 40)
	c := cluster.New(cfg, 3)
	defer c.Close()
	if err := RestoreCluster(c, CaptureCluster(narrow)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "scaled.snap")
	if err := SaveCluster(path, c); err != nil {
		t.Fatal(err)
	}
	snaps, err := LoadClusterAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || snaps[2].Partitions != 3 || snaps[2].RingVNodes == 0 {
		t.Fatalf("scaled frames mis-stamped: %d frames, %+v", len(snaps), snaps[len(snaps)-1])
	}

	fresh := cluster.New(cfg, 3)
	defer fresh.Close()
	if err := RestoreCluster(fresh, snaps); err != nil {
		t.Fatal(err)
	}
	for u := core.UserID(1); u <= 40; u++ {
		if !c.Profile(u).Equal(fresh.Profile(u)) {
			t.Fatalf("user %d: profile did not survive scaled save/restore", u)
		}
		if c.Partition(u) != fresh.Partition(u) {
			t.Fatalf("user %d: placement diverged across restart", u)
		}
	}
}

// TestLoadClusterAnyMissingFrame: a snapshot claiming more frames than
// exist refuses to load rather than restoring half a cluster.
func TestLoadClusterAnyMissingFrame(t *testing.T) {
	cfg := server.DefaultConfig()
	c := cluster.New(cfg, 3)
	defer c.Close()
	churnCluster(t, c, 12)
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := SaveCluster(path, c); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(PartitionPath(path, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterAny(path); err == nil {
		t.Fatal("partial snapshot loaded silently")
	}
}

// TestSaveClusterPrunesStaleFrames: saving after a restart at a smaller
// partition count removes the higher-numbered frames the wider topology
// left behind, so a later restart can never mix generations.
func TestSaveClusterPrunesStaleFrames(t *testing.T) {
	cfg := server.DefaultConfig()
	wide := cluster.New(cfg, 4)
	defer wide.Close()
	churnCluster(t, wide, 24)
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := SaveCluster(path, wide); err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cfg, 2)
	defer c.Close()
	if err := RestoreCluster(c, CaptureCluster(wide)); err != nil {
		t.Fatal(err)
	}
	if err := SaveCluster(path, c); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := os.Stat(PartitionPath(path, i)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale frame %d survived the narrower save: %v", i, err)
		}
	}
	snaps, err := LoadClusterAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("loaded %d frames after prune, want 2", len(snaps))
	}
	fresh := cluster.New(cfg, 2)
	defer fresh.Close()
	if err := RestoreCluster(fresh, snaps); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 24 {
		t.Fatalf("restored %d users, want 24", fresh.Len())
	}
}
