package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/metrics"
	"hyrec/internal/server"
	"hyrec/internal/stress"
)

// ClusterScalePoint is one row of the cluster throughput comparison: the
// sustained Rate+Job rate of an N-partition cluster under a fixed
// closed-loop load, and its speedup over the single-partition (≡ plain
// engine) baseline.
type ClusterScalePoint struct {
	Partitions int
	Users      int
	Workers    int
	Ops        int64
	OpsPerSec  float64
	Speedup    float64
}

// ClusterScaling measures server-side Rate+Job throughput of 1-, 4- and
// 16-partition clusters on the same synthetic population and closed-loop
// worker count (one worker per CPU). A single engine serializes every
// candidate draw on one sampler RNG lock; partitioning splits that lock
// domain N ways, which is where the speedup comes from. Default scale 1
// uses 4000 users with 30-item profiles; the measurement window per
// configuration is one second (override with Options.Window).
func ClusterScaling(opt Options) []ClusterScalePoint {
	scale := opt.scaleOr(1)
	users := int(4000 * scale)
	if users < 40 {
		users = 40
	}
	const profileSize = 30
	window := opt.windowOr(time.Second)
	workers := runtime.GOMAXPROCS(0)

	profiles := syntheticProfiles(users, profileSize, opt.seedOr(1))
	uids := make([]core.UserID, users)
	for i, p := range profiles {
		uids[i] = p.User()
	}

	points := make([]ClusterScalePoint, 0, 3)
	for _, parts := range []int{1, 4, 16} {
		cfg := server.DefaultConfig()
		cfg.Seed = opt.seedOr(1)
		c := cluster.New(cfg, parts)
		ctx := context.Background()
		for _, p := range profiles {
			for _, item := range p.Liked() {
				c.Rate(ctx, p.User(), item, true)
			}
		}
		// Prime the KNN tables with one widget round so measured jobs carry
		// realistic (two-hop) candidate sets on every configuration alike.
		sys := cluster.NewSystem(c, nil)
		for _, u := range uids {
			sys.Recommend(0, u, 0)
		}

		ops := stress.Throughput(workers, window, func(worker, i int) {
			u := uids[(uint32(worker)*2654435761+uint32(i))%uint32(len(uids))]
			c.Rate(ctx, u, core.ItemID(uint32(i)%997), true)
			if _, err := c.Job(ctx, u); err != nil {
				panic(err) // deterministic workload; a failure is a bug
			}
		})
		pt := ClusterScalePoint{
			Partitions: parts,
			Users:      users,
			Workers:    workers,
			Ops:        ops,
			OpsPerSec:  float64(ops) / window.Seconds(),
		}
		if len(points) > 0 && points[0].OpsPerSec > 0 {
			pt.Speedup = pt.OpsPerSec / points[0].OpsPerSec
		} else {
			pt.Speedup = 1
		}
		points = append(points, pt)
		opt.logf("clusterscale: %d partitions → %.0f ops/s (%.2fx)\n",
			parts, pt.OpsPerSec, pt.Speedup)
	}
	return points
}

// FprintClusterScaling renders the throughput comparison.
func FprintClusterScaling(w io.Writer, points []ClusterScalePoint) {
	fmt.Fprintln(w, "Cluster scaling: closed-loop Rate+Job throughput (synthetic population)")
	fmt.Fprintf(w, "%10s %8s %8s %12s %10s\n", "partitions", "users", "workers", "ops/sec", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %8d %8d %12.0f %9.2fx\n",
			p.Partitions, p.Users, p.Workers, p.OpsPerSec, p.Speedup)
	}
}

// ClusterRecallRow is one row of the cluster quality experiment: end-
// to-end recall@10 of an N-partition cluster on the ML1 replay, and its
// relative deviation from the single-partition baseline.
type ClusterRecallRow struct {
	Partitions int
	Hits       int
	Positives  int
	Recall10   float64
	// RelDelta is (recall - baseline) / baseline; 0 for the baseline row.
	RelDelta float64
}

// ClusterRecall replays the synthetic ML1 trace (Figure 6 protocol:
// 80/20 temporal split, hits@10 over positive test ratings) through
// clusters of 1, 2, 4 and 8 partitions. The 1-partition row is the
// single-engine baseline by construction; the experiment demonstrates
// that cross-partition candidate exchange keeps recall within a few
// percent of it — without the exchange the per-partition KNN graphs
// fragment and recall collapses (see TestClusterRecallExchangeMatters).
func ClusterRecall(opt Options) []ClusterRecallRow {
	scale := opt.scaleOr(0.1)
	_, events, err := generate(dataset.ML1Config(), scale)
	if err != nil {
		opt.logf("cluster: %v\n", err)
		return nil
	}
	train, test := dataset.Split(events, 0.8)
	const maxN = 10

	rows := make([]ClusterRecallRow, 0, 4)
	for _, parts := range []int{1, 2, 4, 8} {
		cfg := server.DefaultConfig()
		cfg.K = 10
		cfg.Seed = opt.seedOr(1)
		sys := cluster.NewSystem(cluster.New(cfg, parts), nil)
		q := metrics.EvaluateQuality(sys, train, test, maxN)
		row := ClusterRecallRow{
			Partitions: parts,
			Hits:       last(q.Hits),
			Positives:  q.Positives,
			Recall10:   q.Recall(maxN),
		}
		if len(rows) > 0 && rows[0].Recall10 > 0 {
			row.RelDelta = (row.Recall10 - rows[0].Recall10) / rows[0].Recall10
		}
		rows = append(rows, row)
		opt.logf("cluster: %d partitions → recall@10 %.4f (Δ %+.1f%%)\n",
			parts, row.Recall10, 100*row.RelDelta)
	}
	return rows
}

// FprintClusterRecall renders the quality comparison.
func FprintClusterRecall(w io.Writer, rows []ClusterRecallRow) {
	fmt.Fprintln(w, "Cluster recall: ML1 replay, hits@10, N partitions vs single engine")
	fmt.Fprintf(w, "%10s %8s %10s %10s %10s\n", "partitions", "hits", "positives", "recall@10", "rel-delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %8d %10d %10.4f %+9.1f%%\n",
			r.Partitions, r.Hits, r.Positives, r.Recall10, 100*r.RelDelta)
	}
}

// MaxClusterRecallDelta returns the largest absolute relative deviation
// from the baseline row — the epsilon the acceptance check asserts on.
func MaxClusterRecallDelta(rows []ClusterRecallRow) float64 {
	worst := 0.0
	for _, r := range rows {
		if d := math.Abs(r.RelDelta); d > worst {
			worst = d
		}
	}
	return worst
}
