package bench

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/server"
)

func shortOpts() Options {
	return Options{Window: 80 * time.Millisecond, Workers: 2, Users: 48, Seed: 1}
}

// TestRunMeasuresScenario: the runner completes operations, records
// latency percentiles in order, and accounts allocations.
func TestRunMeasuresScenario(t *testing.T) {
	eng := server.NewEngine(server.DefaultConfig())
	defer eng.Close()
	sc := scenarioSet(48)["job-worker-heavy"]
	res, err := Run(context.Background(), eng, sc, shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Failures != 0 {
		t.Fatalf("%d workload failures", res.Failures)
	}
	if res.ThroughputOpsPerSec <= 0 {
		t.Fatalf("throughput %f", res.ThroughputOpsPerSec)
	}
	if res.P50Ms < 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("latency percentiles out of order: p50=%f p99=%f", res.P50Ms, res.P99Ms)
	}
	if res.AllocsPerOp < 0 {
		t.Fatalf("allocs/op %f", res.AllocsPerOp)
	}
}

// TestScenariosRunCleanOnEngineAndCluster: every named scenario completes
// without workload failures on both deployment shapes.
func TestScenariosRunCleanOnEngineAndCluster(t *testing.T) {
	for name, sc := range scenarioSet(48) {
		for _, shape := range []string{"engine", "cluster"} {
			svc := newShape(shape)
			res, err := Run(context.Background(), svc, sc, shortOpts())
			svc.Close()
			if err != nil {
				t.Fatalf("%s on %s: %v", name, shape, err)
			}
			if res.Failures != 0 {
				t.Fatalf("%s on %s: %d failures over %d ops", name, shape, res.Failures, res.Ops)
			}
		}
	}
}

func newShape(shape string) server.Service {
	cfg := server.DefaultConfig()
	if shape == "cluster" {
		return cluster.New(cfg, 4)
	}
	return server.NewEngine(cfg)
}

// TestReportRoundTripAndCompare: reports survive the file format, and the
// regression guard flags collapses, alloc explosions, and dropped
// scenarios — but not healthy runs.
func TestReportRoundTripAndCompare(t *testing.T) {
	base := NewReport(shortOpts())
	base.Scenarios = []Result{
		{Scenario: "rate-heavy", Service: "engine", Mode: "inproc", ThroughputOpsPerSec: 1000, AllocsPerOp: 10, P50Ms: 0.1, P99Ms: 0.5, Ops: 100},
		{Scenario: "job-wire", Service: "engine-wire", Mode: "wire", ThroughputOpsPerSec: 500, AllocsPerOp: 40, Ops: 50},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != 2 || back.Scenarios[0] != base.Scenarios[0] {
		t.Fatalf("round trip changed report: %+v", back.Scenarios)
	}

	healthy := *base
	healthy.Scenarios = []Result{
		{Scenario: "rate-heavy", Service: "engine", Mode: "inproc", ThroughputOpsPerSec: 900, AllocsPerOp: 11},
		{Scenario: "job-wire", Service: "engine-wire", Mode: "wire", ThroughputOpsPerSec: 480, AllocsPerOp: 39},
	}
	if issues := Compare(base, &healthy, DefaultTolerance()); len(issues) != 0 {
		t.Fatalf("healthy run flagged: %v", issues)
	}

	collapsed := *base
	collapsed.Scenarios = []Result{
		{Scenario: "rate-heavy", Service: "engine", Mode: "inproc", ThroughputOpsPerSec: 100, AllocsPerOp: 10},
		{Scenario: "job-wire", Service: "engine-wire", Mode: "wire", ThroughputOpsPerSec: 480, AllocsPerOp: 200},
	}
	issues := Compare(base, &collapsed, DefaultTolerance())
	if len(issues) != 2 {
		t.Fatalf("want 2 issues (throughput collapse + alloc explosion), got %v", issues)
	}
	if !strings.Contains(issues[1], "throughput") || !strings.Contains(issues[0], "allocs/op") {
		t.Fatalf("unexpected issue wording: %v", issues)
	}

	dropped := *base
	dropped.Scenarios = base.Scenarios[:1]
	if issues := Compare(base, &dropped, DefaultTolerance()); len(issues) != 1 ||
		!strings.Contains(issues[0], "not measured") {
		t.Fatalf("dropped scenario not flagged: %v", issues)
	}

	// Absolute alloc caps bind regardless of the baseline ratio: 11 vs a
	// baseline of 10 passes the ratio guard but breaks a cap of 10.5, and
	// a capped row that disappears is flagged too.
	capped := DefaultTolerance()
	capped.AllocCaps = map[string]float64{"rate-heavy/engine/inproc": 10.5}
	issues = Compare(base, &healthy, capped)
	if len(issues) != 1 || !strings.Contains(issues[0], "absolute ceiling") {
		t.Fatalf("absolute alloc cap not enforced: %v", issues)
	}
	capped.AllocCaps = map[string]float64{"rate-heavy/engine/inproc": 20}
	if issues := Compare(base, &healthy, capped); len(issues) != 0 {
		t.Fatalf("run under the alloc cap flagged: %v", issues)
	}
	capped.AllocCaps = map[string]float64{"no-such/row/inproc": 1}
	if issues := Compare(base, &healthy, capped); len(issues) != 1 ||
		!strings.Contains(issues[0], "alloc-capped row not measured") {
		t.Fatalf("missing capped row not flagged: %v", issues)
	}
}

// TestServePathAllocsCapped is the bench-level form of the serving-path
// allocation guard, measured through the runner: pure job payload
// serving (assembly + encode on pooled buffers) on a default engine
// stays within 8 allocations per op, process-wide. TestHotPathAllocCap
// (internal/server) pins the tighter bound with testing.AllocsPerRun
// precision.
func TestServePathAllocsCapped(t *testing.T) {
	if raceEnabled {
		// The detector's shadow allocations land in the process-wide
		// counters; TestHotPathAllocCap (internal/server) is the
		// race-independent guard.
		t.Skip("process-wide allocation counts are unreliable under -race")
	}
	opts := shortOpts()
	opts.Window = 150 * time.Millisecond
	base := scenarioSet(opts.Users)["job-worker-heavy"]
	sc := Scenario{
		Name:  "serve-only",
		Setup: base.Setup,
		Op: func(ctx context.Context, svc server.Service, worker, i int) error {
			return servePayload(svc, benchUID(worker, i, opts.Users))
		},
	}
	e := server.NewEngine(server.DefaultConfig())
	res, err := Run(context.Background(), e, sc, opts)
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/op: %.1f", res.AllocsPerOp)
	if res.AllocsPerOp > 8 {
		t.Fatalf("serving path allocs/op %.1f, want <= 8", res.AllocsPerOp)
	}
}

// TestCapacityShortRun drives the full matrix at a tiny window — the
// exact code path scripts/bench.sh and the capacity experiment run.
func TestCapacityShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity matrix needs a real HTTP server; skipped in -short")
	}
	opts := Options{Window: 60 * time.Millisecond, Workers: 2, Users: 32, Seed: 1}
	rep, err := Capacity(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) < 3 {
		t.Fatalf("capacity report has %d scenarios, want >= 3", len(rep.Scenarios))
	}
	for _, res := range rep.Scenarios {
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops", res.key())
		}
		if res.ThroughputOpsPerSec <= 0 || res.P99Ms < res.P50Ms {
			t.Fatalf("%s: implausible stats %+v", res.key(), res)
		}
	}
	// A fresh run of the same build must pass its own regression guard.
	if issues := Compare(rep, rep, DefaultTolerance()); len(issues) != 0 {
		t.Fatalf("self-compare flagged: %v", issues)
	}
}

// TestWorkloadDeterminism: the op stream is a pure function of
// (worker, i) — two services fed the same stream end in the same state.
func TestWorkloadDeterminism(t *testing.T) {
	mk := func() *server.Engine { return server.NewEngine(server.DefaultConfig()) }
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()
	sc := scenarioSet(32)
	if err := sc["rate-heavy"].Setup(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := sc["rate-heavy"].Setup(ctx, b); err != nil {
		t.Fatal(err)
	}
	op := sc["rate-heavy"].Op
	for i := 0; i < 500; i++ {
		if err := op(ctx, a, 0, i); err != nil {
			t.Fatal(err)
		}
		if err := op(ctx, b, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if a.Profiles().Len() != b.Profiles().Len() {
		t.Fatalf("population diverged: %d vs %d", a.Profiles().Len(), b.Profiles().Len())
	}
	ua, ub := a.Profiles().Users(), b.Profiles().Users()
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("roster diverged at %d: %v vs %v", i, ua[i], ub[i])
		}
		pa, pb := a.Profiles().Get(ua[i]), b.Profiles().Get(ub[i])
		if !pa.Equal(pb) {
			t.Fatalf("profile diverged for %v", ua[i])
		}
	}
}

// TestRebalanceScenario: the live-resharding benchmark completes at a
// short window, moves users, and reports sane per-user numbers.
func TestRebalanceScenario(t *testing.T) {
	res, err := Rebalance(context.Background(), Options{Window: 50 * time.Millisecond, Workers: 2, Users: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "rebalance" || res.Service != "cluster-2x4" {
		t.Fatalf("rebalance result mislabeled: %+v", res)
	}
	if res.Ops <= 0 || res.ThroughputOpsPerSec <= 0 {
		t.Fatalf("rebalance moved nothing: %+v", res)
	}
	if res.P99Ms < res.P50Ms || res.AllocsPerOp <= 0 {
		t.Fatalf("implausible rebalance stats: %+v", res)
	}
}
