package persist

import (
	"errors"
	"fmt"
	"os"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/core"
)

// Cluster snapshots: one persist frame per partition, each written with
// the same atomic temp-file-and-rename discipline as a single-engine
// snapshot, so a crash mid-save never corrupts any partition's previous
// state. Partition i of an N-partition deployment lives at
// PartitionPath(path, i) and its body is stamped (Partition=i,
// Partitions=N, RingVNodes=V) — the full topology parameters of the
// consistent-hash ring that placed its users.
//
// Restores are topology-elastic: when the frames' stamps match the
// running ring exactly, each frame restores straight into its
// partition; otherwise RestoreCluster *replays the migration* — every
// restored user is routed through the live ring to the engine that owns
// her now — so an N-partition snapshot loads into an M-partition
// cluster (and a legacy fixed-hash or single-engine snapshot into a
// ring cluster) with byte-identical per-user profiles.

// PartitionPath returns where partition i of the snapshot at path is
// stored: "<path>.p<i>".
func PartitionPath(path string, i int) string { return fmt.Sprintf("%s.p%d", path, i) }

// CaptureCluster copies every partition's tables into per-partition
// snapshots, stamped with their position in the topology and the ring
// parameter.
func CaptureCluster(c *cluster.Cluster) []*Snapshot {
	snaps := make([]*Snapshot, c.NumPartitions())
	for i := range snaps {
		s := Capture(c.Engine(i))
		s.Partition, s.Partitions, s.RingVNodes = i, len(snaps), c.Ring().VNodes()
		snaps[i] = s
	}
	return snaps
}

// SaveCluster writes one frame per partition in two phases: every frame
// is encoded and fsynced to a temp file first, then all temps are
// renamed into place. Staging before renaming matters because a
// restart may change the partition count — a crash during a sequential
// per-frame save could otherwise leave frames from two topology
// generations side by side (a 4-stamped p0 next to a 2-stamped p1),
// which the load path refuses. The residual window is the rename loop itself
// (microseconds, no encoding I/O). After a successful save, leftover
// higher-numbered frames from a previously wider topology are pruned
// so a future LoadClusterAny cannot mix generations either.
func SaveCluster(path string, c *cluster.Cluster) error {
	snaps := CaptureCluster(c)
	tmps := make([]string, len(snaps))
	cleanup := func(from int) {
		for _, t := range tmps[from:] {
			if t != "" {
				os.Remove(t)
			}
		}
	}
	for i, s := range snaps {
		tmp, err := saveTemp(PartitionPath(path, i), s)
		if err != nil {
			cleanup(0)
			return fmt.Errorf("persist: partition %d: %w", i, err)
		}
		tmps[i] = tmp
	}
	for i, tmp := range tmps {
		if err := os.Rename(tmp, PartitionPath(path, i)); err != nil {
			cleanup(i)
			return fmt.Errorf("persist: partition %d: rename into place: %w", i, err)
		}
	}
	for i := len(snaps); ; i++ {
		if err := os.Remove(PartitionPath(path, i)); err != nil {
			break
		}
	}
	return nil
}

// LoadCluster reads the n partition frames of the snapshot at path,
// refusing topology mismatches — the strict loader for deployments that
// require the on-disk shape to equal the running one. A completely
// absent snapshot (no partition files at all) reports os.ErrNotExist so
// callers can start fresh; a partially present one is an error. Use
// LoadClusterAny + RestoreCluster's migration replay to restore across
// topologies.
func LoadCluster(path string, n int) ([]*Snapshot, error) {
	snaps := make([]*Snapshot, n)
	missing := 0
	for i := 0; i < n; i++ {
		s, err := Load(PartitionPath(path, i))
		switch {
		case err == nil:
			if s.Partitions != 0 && s.Partitions != n {
				return nil, fmt.Errorf("persist: partition %d was saved by a %d-partition deployment, running %d",
					i, s.Partitions, n)
			}
			if s.Partitions != 0 && s.Partition != i {
				return nil, fmt.Errorf("persist: frame at %s claims partition %d", PartitionPath(path, i), s.Partition)
			}
			snaps[i] = s
		case errors.Is(err, os.ErrNotExist):
			missing++
		default:
			return nil, fmt.Errorf("persist: partition %d: %w", i, err)
		}
	}
	if missing == n {
		return nil, fmt.Errorf("persist: no cluster snapshot at %s.p*: %w", path, os.ErrNotExist)
	}
	if missing > 0 {
		return nil, fmt.Errorf("persist: cluster snapshot at %s is missing %d of %d partition frames", path, missing, n)
	}
	return snaps, nil
}

// LoadClusterAny discovers and reads however many partition frames the
// snapshot at path holds, whatever topology saved them. The frame count
// is taken from partition 0's stamp (legacy unstamped frames load as a
// single-frame snapshot); every discovered frame must be present and
// stamp-consistent. Reports os.ErrNotExist when no frames exist at all.
func LoadClusterAny(path string) ([]*Snapshot, error) {
	first, err := Load(PartitionPath(path, 0))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("persist: no cluster snapshot at %s.p*: %w", path, os.ErrNotExist)
		}
		return nil, fmt.Errorf("persist: partition 0: %w", err)
	}
	n := first.Partitions
	if n < 1 {
		n = 1
	}
	// The stamp is untrusted input from disk: bound it (the lane
	// registry admits nowhere near this many partitions) and require
	// frame 0 to actually be frame 0, so a corrupt count cannot drive a
	// huge allocation and a misplaced frame cannot pose as the first.
	const maxFrames = 1 << 16
	if n > maxFrames {
		return nil, fmt.Errorf("persist: frame at %s claims %d partitions (limit %d)", PartitionPath(path, 0), n, maxFrames)
	}
	if first.Partitions != 0 && first.Partition != 0 {
		return nil, fmt.Errorf("persist: frame at %s stamped partition %d, want 0", PartitionPath(path, 0), first.Partition)
	}
	snaps := make([]*Snapshot, n)
	snaps[0] = first
	for i := 1; i < n; i++ {
		s, err := Load(PartitionPath(path, i))
		if err != nil {
			return nil, fmt.Errorf("persist: cluster snapshot at %s claims %d partitions but frame %d failed: %w",
				path, n, i, err)
		}
		if s.Partitions != n || s.Partition != i {
			return nil, fmt.Errorf("persist: frame at %s stamped partition %d of %d, want %d of %d",
				PartitionPath(path, i), s.Partition, s.Partitions, i, n)
		}
		snaps[i] = s
	}
	return snaps, nil
}

// RestoreCluster loads partition snapshots into the cluster. When the
// frames were saved by the identical topology — same partition count,
// same ring parameter, frame i stamped as partition i — each frame
// restores directly into its engine. Any other shape (different
// partition count, a legacy fixed-hash or single-engine snapshot)
// triggers migration replay: every user record is routed through the
// live ring to the engine that owns her under the current topology, so
// profiles land byte-identically wherever ownership says they belong.
func RestoreCluster(c *cluster.Cluster, snaps []*Snapshot) error {
	if clusterFramesMatch(c, snaps) {
		for i, s := range snaps {
			if err := Restore(c.Engine(i), s); err != nil {
				return fmt.Errorf("persist: restore partition %d: %w", i, err)
			}
		}
		return nil
	}
	return replayCluster(c, snaps)
}

// clusterFramesMatch reports whether snaps were saved by exactly the
// cluster's current topology, making direct per-partition restore valid.
func clusterFramesMatch(c *cluster.Cluster, snaps []*Snapshot) bool {
	if len(snaps) != c.NumPartitions() {
		return false
	}
	vnodes := c.Ring().VNodes()
	for i, s := range snaps {
		if s == nil || s.Partitions != len(snaps) || s.Partition != i || s.RingVNodes != vnodes {
			return false
		}
	}
	return true
}

// replayCluster re-routes every snapshot user through the live ring:
// the one way a process changes its partition count is a restart over
// the same snapshot.
func replayCluster(c *cluster.Cluster, snaps []*Snapshot) error {
	for fi, s := range snaps {
		if s == nil {
			continue
		}
		knn := make(map[uint32][]uint32, len(s.KNN))
		for _, rec := range s.KNN {
			knn[rec.ID] = rec.Neighbors
		}
		for _, rec := range s.Users {
			u := core.UserID(rec.ID)
			e := c.Engine(c.Partition(u))
			p, err := core.ProfileFromSets(u, toItemIDs(rec.Liked), toItemIDs(rec.Disliked))
			if err != nil {
				return fmt.Errorf("persist: replay frame %d user %d: %w", fi, rec.ID, err)
			}
			e.Profiles().Put(p)
			if nbs := knn[rec.ID]; len(nbs) > 0 {
				e.KNN().Put(u, toUserIDs(nbs))
			}
		}
	}
	return nil
}

// NewClusterSaver builds a Saver that periodically writes one frame per
// partition — the cluster analogue of NewSaver.
func NewClusterSaver(c *cluster.Cluster, path string, period time.Duration, onError func(error)) *Saver {
	return NewSaverFunc(func() error { return SaveCluster(path, c) }, period, onError)
}
