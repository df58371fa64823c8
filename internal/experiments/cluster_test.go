package experiments

import (
	"runtime"
	"testing"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/dataset"
	"hyrec/internal/metrics"
	"hyrec/internal/server"
)

// TestClusterScalingSmoke exercises the throughput comparison end to end
// at a tiny scale and a 40 ms window per configuration.
func TestClusterScalingSmoke(t *testing.T) {
	points := ClusterScaling(Options{Scale: 0.02, Window: 40 * time.Millisecond, Seed: 1})
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	wantParts := []int{1, 4, 16}
	for i, p := range points {
		if p.Partitions != wantParts[i] {
			t.Errorf("point %d: partitions = %d, want %d", i, p.Partitions, wantParts[i])
		}
		if p.Ops <= 0 || p.OpsPerSec <= 0 {
			t.Errorf("point %d: no throughput measured: %+v", i, p)
		}
		if p.Speedup <= 0 {
			t.Errorf("point %d: speedup = %v", i, p.Speedup)
		}
	}
}

// TestClusterScalingSpeedup is the acceptance check for the tentpole's
// performance claim: on a multi-core machine, a multi-partition cluster
// must sustain higher Rate+Job throughput than a single engine. The
// speedup comes from splitting the sampler-RNG lock domain, which cannot
// manifest on fewer than a handful of cores, so the assertion is gated on
// GOMAXPROCS.
func TestClusterScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 3x1s throughput measurement in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 cores to demonstrate partition scaling, have %d", runtime.GOMAXPROCS(0))
	}
	points := ClusterScaling(Options{Seed: 1})
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	base, quad := points[0], points[1]
	if quad.OpsPerSec <= base.OpsPerSec {
		t.Errorf("4 partitions (%.0f ops/s) did not beat 1 partition (%.0f ops/s)",
			quad.OpsPerSec, base.OpsPerSec)
	}
}

// TestClusterRecallEpsilon is the acceptance check for the tentpole's
// quality claim: on the synthetic ML1 replay, every multi-partition
// configuration must keep recall@10 within 5% (relative) below the
// single-engine baseline. The whole pipeline is deterministic under a
// fixed seed, so this is a regression pin, not a statistical test.
func TestClusterRecallEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full ML1 replay in -short mode")
	}
	rows := ClusterRecall(Options{Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	base := rows[0]
	if base.Partitions != 1 {
		t.Fatalf("baseline row has %d partitions", base.Partitions)
	}
	if base.Recall10 <= 0 {
		t.Fatalf("baseline recall@10 = %v; the replay measured nothing", base.Recall10)
	}
	for _, r := range rows[1:] {
		if r.Recall10 < 0.95*base.Recall10 {
			t.Errorf("%d partitions: recall@10 %.4f is more than 5%% below baseline %.4f",
				r.Partitions, r.Recall10, base.Recall10)
		}
	}
}

// TestClusterRecallExchangeMatters is the ablation control: with
// cross-partition candidate exchange disabled, the per-partition KNN
// graphs fragment and recall must drop below the with-exchange cluster —
// demonstrating the exchange, not partitioning luck, is what preserves
// quality.
func TestClusterRecallExchangeMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ML1 replays in -short mode")
	}
	_, events, err := generate(dataset.ML1Config(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(events, 0.8)
	const maxN = 10

	run := func(exchange bool) float64 {
		cfg := server.DefaultConfig()
		cfg.K = 10
		cfg.Seed = 1
		c := cluster.New(cfg, 4)
		if !exchange {
			c.SetExchange(0)
		}
		q := metrics.EvaluateQuality(cluster.NewSystem(c, nil), train, test, maxN)
		return q.Recall(maxN)
	}

	with := run(true)
	without := run(false)
	t.Logf("recall@10 with exchange %.4f, without %.4f", with, without)
	if without >= with {
		t.Errorf("disabling the exchange did not hurt recall (with=%.4f without=%.4f); the exchange is not load-bearing",
			with, without)
	}
}
