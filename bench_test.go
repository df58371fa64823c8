// Benchmarks regenerating each table and figure of the paper at reduced
// scale (one benchmark per experiment; cmd/hyrec-bench runs the same code
// at full scale), plus ablation benchmarks for the design decisions listed
// in ARCHITECTURE.md, "Design decisions and their ablations".
package hyrec_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec"
	"hyrec/internal/core"
	"hyrec/internal/experiments"
	"hyrec/internal/loadgen"
	"hyrec/internal/privacy"
	"hyrec/internal/wire"
)

// tctx drives the context-aware Service methods in benchmarks.
var tctx = context.Background()

// benchOpts returns quiet, small-scale options so `go test -bench` stays
// minutes, not hours.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.05, Requests: 50, Seed: 1}
}

func BenchmarkTable2DatasetStats(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table2(opt); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure3ViewSimilarity(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure3(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure4ActivityQuality(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure4(opt); res.Users == 0 {
			b.Fatal("no users")
		}
	}
}

func BenchmarkFigure5CandidateSet(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if series := experiments.Figure5(opt); len(series) != 3 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

func BenchmarkFigure6RecQuality(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure6(opt); res.Positives == 0 {
			b.Fatal("no positives")
		}
	}
}

func BenchmarkFigure7KNNWallClock(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.1 // ML1 at 94 users; larger sets scale down further
	for i := 0; i < b.N; i++ {
		if rows := experiments.Figure7(opt); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable3CostReduction(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.1
	rows := experiments.Figure7(opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiments.Table3(opt, rows); len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure8ResponseTime(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure8(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure9Concurrency(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure9(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure10Bandwidth(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure10(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure11ClientImpact(b *testing.B) {
	opt := benchOpts()
	opt.Requests = 30 // 30ms monitor window per load level
	for i := 0; i < b.N; i++ {
		if rows := experiments.Figure11(opt); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure12CPULoad(b *testing.B) {
	opt := benchOpts()
	opt.Requests = 5
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure12(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure13WidgetProfile(b *testing.B) {
	opt := benchOpts()
	opt.Requests = 5
	for i := 0; i < b.N; i++ {
		if pts := experiments.Figure13(opt); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkBandwidthComparison(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.005
	opt.Requests = 30 // gossip rounds measured
	for i := 0; i < b.N; i++ {
		if res := experiments.Bandwidth(opt); res.Users == 0 {
			b.Fatal("no users")
		}
	}
}

// --- Ablations (ARCHITECTURE.md, "Design decisions and their ablations") ---

// BenchmarkAblationProfileCache compares personalization-job assembly with
// and without the serialized-profile cache.
func BenchmarkAblationProfileCache(b *testing.B) {
	build := func(disable bool) *hyrec.Engine {
		cfg := hyrec.DefaultConfig()
		cfg.DisableProfileCache = disable
		engine := hyrec.NewEngine(cfg)
		for u := core.UserID(0); u < 200; u++ {
			for j := 0; j < 100; j++ {
				engine.Rate(tctx, u, core.ItemID((int(u)*13+j*7)%1000), true)
			}
		}
		// Warm the KNN table for dense candidate sets.
		for u := core.UserID(0); u < 200; u++ {
			hood := make([]core.UserID, 10)
			for d := range hood {
				hood[d] = (u + core.UserID(d) + 1) % 200
			}
			engine.KNN().Put(u, hood)
		}
		return engine
	}
	b.Run("cache=on", func(b *testing.B) {
		engine := build(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.JobPayload(core.UserID(i % 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=off", func(b *testing.B) {
		engine := build(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.JobPayload(core.UserID(i % 200)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGzipLevel quantifies the BestSpeed-vs-default trade-off
// on a realistic personalization job.
func BenchmarkAblationGzipLevel(b *testing.B) {
	engine := hyrec.NewEngine(hyrec.DefaultConfig())
	for u := core.UserID(0); u < 121; u++ {
		for j := 0; j < 100; j++ {
			engine.Rate(tctx, u, core.ItemID((int(u)*17+j*3)%1000), true)
		}
	}
	jsonBody, _, err := engine.JobPayload(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []struct {
		name string
		lv   wire.GzipLevel
	}{
		{"huffman-only", wire.GzipHuffmanOnly},
		{"best-speed", wire.GzipBestSpeed},
		{"default", wire.GzipDefault},
		{"best-compression", wire.GzipBestCompact},
	} {
		b.Run(level.name, func(b *testing.B) {
			b.SetBytes(int64(len(jsonBody)))
			var gzLen int
			for i := 0; i < b.N; i++ {
				gz, err := wire.Compress(jsonBody, level.lv)
				if err != nil {
					b.Fatal(err)
				}
				gzLen = len(gz)
			}
			b.ReportMetric(float64(gzLen), "gzip-bytes")
		})
	}
}

// BenchmarkAblationProfileSnapshot compares the immutable copy-on-write
// profile against a mutex-guarded mutable map profile under a concurrent
// read-mostly workload (the server's actual access pattern).
func BenchmarkAblationProfileSnapshot(b *testing.B) {
	const items = 150
	b.Run("immutable-cow", func(b *testing.B) {
		p := core.NewProfile(1)
		for j := 0; j < items; j++ {
			p = p.WithRating(core.ItemID(j*3), true)
		}
		var mu sync.RWMutex // snapshot pointer swap
		cur := p
		b.RunParallel(func(pb *testing.PB) {
			other := core.NewProfile(2).WithRating(3, true)
			i := 0
			for pb.Next() {
				i++
				if i%100 == 0 {
					mu.Lock()
					cur = cur.WithRating(core.ItemID(i%1000), true)
					mu.Unlock()
					continue
				}
				mu.RLock()
				snapshot := cur
				mu.RUnlock()
				(core.Cosine{}).Score(snapshot, other)
			}
		})
	})
	b.Run("locked-mutable", func(b *testing.B) {
		liked := map[core.ItemID]bool{}
		for j := 0; j < items; j++ {
			liked[core.ItemID(j*3)] = true
		}
		var mu sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			other := map[core.ItemID]bool{3: true}
			i := 0
			for pb.Next() {
				i++
				if i%100 == 0 {
					mu.Lock()
					liked[core.ItemID(i%1000)] = true
					mu.Unlock()
					continue
				}
				// Reader must hold the lock across the whole similarity
				// computation — the cost the immutable design avoids.
				mu.RLock()
				count := 0
				for item := range other {
					if liked[item] {
						count++
					}
				}
				_ = count
				mu.RUnlock()
			}
		})
	})
}

// BenchmarkExtensionPrivacy regenerates the differential-privacy ablation
// (quality vs ε; an extension the paper's conclusion proposes).
func BenchmarkExtensionPrivacy(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.03
	for i := 0; i < b.N; i++ {
		if rows := experiments.PrivacyAblation(opt); len(rows) < 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkExtensionStaleness regenerates the TiVo-style item-based-CF
// staleness comparison (Section 2.4's architectural argument).
func BenchmarkExtensionStaleness(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.03
	for i := 0; i < b.N; i++ {
		if rows := experiments.StalenessStudy(opt); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkExtensionChurn regenerates the availability study (HyRec vs P2P
// under machine churn, Section 2.4's availability argument).
func BenchmarkExtensionChurn(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.03
	for i := 0; i < b.N; i++ {
		if rows := experiments.ChurnStudy(opt); len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkAblationSampler regenerates the candidate-rule dissection
// (full vs no-random vs random-only — the Section 3.1 design claims).
func BenchmarkAblationSampler(b *testing.B) {
	opt := benchOpts()
	opt.Scale = 0.03
	for i := 0; i < b.N; i++ {
		if rows := experiments.SamplerAblation(opt); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationWebWorkers measures the widget's web-worker mode: the
// same personalization job executed with 1, 2, and 4 parallel workers
// (the HTML5-threads improvement the paper's conclusion anticipates).
func BenchmarkAblationWebWorkers(b *testing.B) {
	engine := hyrec.NewEngine(hyrec.DefaultConfig())
	for u := core.UserID(0); u < 121; u++ {
		for j := 0; j < 200; j++ {
			engine.Rate(tctx, u, core.ItemID((int(u)*17+j*3)%2000), true)
		}
	}
	for u := core.UserID(0); u < 121; u++ {
		hood := make([]core.UserID, 10)
		for d := range hood {
			hood[d] = (u + core.UserID(d) + 1) % 121
		}
		engine.KNN().Put(u, hood)
	}
	job, err := engine.Job(tctx, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			w := hyrec.NewWidget(hyrec.WithWorkers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, _ := w.Execute(job); len(res.Neighbors) == 0 {
					b.Fatal("no neighbors")
				}
			}
		})
	}
}

// BenchmarkAblationPrivacyPerturb measures the raw cost of one
// randomized-response release at several ε (the per-candidate overhead a
// privacy-enabled deployment pays on the job-assembly path).
func BenchmarkAblationPrivacyPerturb(b *testing.B) {
	profile := core.NewProfile(1)
	for j := 0; j < 100; j++ {
		profile = profile.WithRating(core.ItemID(j*17%1700), true)
	}
	for _, eps := range []float64{0.5, 1, 4} {
		b.Run(benchNameF("eps", eps), func(b *testing.B) {
			rr, err := privacy.NewRandomizedResponse(eps, 1700, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr.Perturb(profile)
			}
		})
	}
}

func benchName(key string, v int) string      { return fmt.Sprintf("%s=%d", key, v) }
func benchNameF(key string, v float64) string { return fmt.Sprintf("%s=%g", key, v) }

// BenchmarkAblationFeistelVsMap compares the O(1)-memory Feistel
// anonymizer against a materialised map-based shuffle.
func BenchmarkAblationFeistelVsMap(b *testing.B) {
	const population = 100_000
	b.Run("feistel", func(b *testing.B) {
		anon := core.NewAnonymizer(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			anon.AliasUser(core.UserID(i % population))
		}
	})
	b.Run("stored-map", func(b *testing.B) {
		fwd := make(map[core.UserID]core.UserID, population)
		perm := make([]core.UserID, population)
		for i := range perm {
			perm[i] = core.UserID(i)
		}
		// Fisher–Yates with a fixed LCG for determinism.
		state := uint64(42)
		for i := population - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, v := range perm {
			fwd[core.UserID(i)] = v
		}
		var mu sync.RWMutex
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.RLock()
			_ = fwd[core.UserID(i%population)]
			mu.RUnlock()
		}
	})
}

// BenchmarkClusterHTTPOnline drives the fan-out front-end with the
// ab-style load generator, spreading /online requests over a population
// that spans every partition — the HTTP view of the cluster throughput
// comparison (in-process view: BenchmarkClusterScaling).
func BenchmarkClusterHTTPOnline(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			cfg := hyrec.DefaultConfig()
			c := hyrec.NewCluster(cfg, parts)
			uids := make([]uint32, 200)
			for i := range uids {
				u := core.UserID(i + 1)
				uids[i] = uint32(u)
				for j := 0; j < 10; j++ {
					c.Rate(tctx, u, core.ItemID(i%7+j), true)
				}
			}
			ts := httptest.NewServer(hyrec.ClusterHandler(c, 0))
			defer ts.Close()
			b.ResetTimer()
			res := loadgen.Run(loadgen.UserTarget(ts.URL+"/online?uid=%d", uids), b.N, 8)
			if res.Failures > 0 {
				b.Fatalf("%d/%d requests failed", res.Failures, res.Requests)
			}
		})
	}
}

// BenchmarkClusterScaling runs the in-process Rate+Job throughput
// comparison (1 vs 4 vs 16 partitions) at reduced scale with a short
// measurement window.
func BenchmarkClusterScaling(b *testing.B) {
	opt := benchOpts()
	opt.Window = 100 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if pts := experiments.ClusterScaling(opt); len(pts) != 3 {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

// BenchmarkClusterRecall runs the cluster-vs-single-engine quality
// replay at reduced scale.
func BenchmarkClusterRecall(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if rows := experiments.ClusterRecall(opt); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}
