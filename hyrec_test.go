package hyrec

import (
	"context"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/metrics"
	"hyrec/internal/replay"
)

// tctx is the context used by tests exercising the context-aware
// Service methods.
var tctx = context.Background()

func TestPublicAPIQuickstart(t *testing.T) {
	eng := NewEngine(DefaultConfig())
	w := NewWidget()

	eng.Rate(tctx, 42, 7, true)
	eng.Rate(tctx, 43, 7, true)
	eng.Rate(tctx, 43, 8, true)

	job, err := eng.Job(tctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)
	recs, err := eng.ApplyResult(tctx, res)
	if err != nil {
		t.Fatal(err)
	}
	// User 43 shares item 7 and likes 8 → 8 must be recommended to 42.
	found := false
	for _, item := range recs {
		if item == 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recs = %v, want to contain 8", recs)
	}
	if hood, _ := eng.Neighbors(tctx, 42); len(hood) == 0 || hood[0] != 43 {
		t.Fatalf("neighbors = %v", hood)
	}
}

func TestWidgetOptionsViaFacade(t *testing.T) {
	w := NewWidget(WithSimilarity(Jaccard{}), WithDevice(Smartphone()))
	if w.Device().Name != "smartphone" {
		t.Fatal("device option lost")
	}
}

// TestSystemConvergesTowardIdeal is the Figure 3 claim in miniature: after
// replaying a community-structured trace, HyRec's KNN approximation must
// reach a large fraction of the ideal view similarity.
func TestSystemConvergesTowardIdeal(t *testing.T) {
	tr, err := dataset.Generate(dataset.Scaled(dataset.ML1Config(), 0.07))
	if err != nil {
		t.Fatal(err)
	}
	events := dataset.Binarize(tr)
	if len(events) > 6000 {
		events = events[:6000]
	}

	cfg := DefaultConfig()
	cfg.K = 10
	sys := NewSystem(cfg)
	replay.NewDriver(sys).Run(events)

	src := sys.ProfileSource()
	gotV := metrics.ViewSimilarity(src, sys.Neighbors, core.Cosine{})
	idealV := metrics.IdealViewSimilarity(src, cfg.K, core.Cosine{})
	if idealV == 0 {
		t.Fatal("degenerate workload: ideal view similarity is 0")
	}
	ratio := gotV / idealV
	t.Logf("view similarity: hyrec=%.4f ideal=%.4f ratio=%.2f", gotV, idealV, ratio)
	// The paper reports within 10–20%% of ideal on ML1; at this reduced
	// scale and activity we demand at least 60%%.
	if ratio < 0.6 {
		t.Fatalf("HyRec converged to only %.0f%% of ideal", 100*ratio)
	}
}

func TestSystemWireFidelityMetersTraffic(t *testing.T) {
	sys := NewSystem(DefaultConfig(), WithWireFidelity())
	for u := core.UserID(1); u <= 10; u++ {
		sys.Rate(0, core.Rating{User: u, Item: core.ItemID(u % 4), Liked: true})
	}
	m := sys.Engine().Meter()
	if m.JobBytes() == 0 || m.ResultBytes() == 0 {
		t.Fatalf("wire fidelity did not meter traffic: %d job bytes, %d result bytes", m.JobBytes(), m.ResultBytes())
	}
}

func TestSystemFastPathDoesNotMeter(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.Rate(0, core.Rating{User: 1, Item: 1, Liked: true})
	if sys.Engine().Meter().JobBytes() != 0 {
		t.Fatal("fast path unexpectedly metered job traffic")
	}
}

func TestSystemAnonymizerRotation(t *testing.T) {
	sys := NewSystem(DefaultConfig(), WithAnonymizerRotation(time.Hour))
	sys.Rate(30*time.Minute, core.Rating{User: 1, Item: 1, Liked: true})
	sys.Tick(30 * time.Minute)
	sys.Tick(5 * time.Hour) // several boundaries at once
	// The system must keep functioning across rotations.
	sys.Rate(5*time.Hour, core.Rating{User: 2, Item: 1, Liked: true})
	if recs := sys.Recommend(5*time.Hour, 1, 3); recs == nil {
		// may legitimately be empty; just must not panic
		_ = recs
	}
	if sys.Name() != "hyrec" {
		t.Fatal("name")
	}
}

func TestSystemRecommendBoundsN(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	for u := core.UserID(1); u <= 6; u++ {
		sys.Rate(0, core.Rating{User: u, Item: 1, Liked: true})
		sys.Rate(0, core.Rating{User: u, Item: core.ItemID(10 + u), Liked: true})
	}
	recs := sys.Recommend(0, 1, 2)
	if len(recs) > 2 {
		t.Fatalf("asked for 2, got %d", len(recs))
	}
}

func TestHandlerFacade(t *testing.T) {
	eng := NewEngine(DefaultConfig())
	h := Handler(eng, 0)
	if h == nil {
		t.Fatal("nil handler")
	}
}
