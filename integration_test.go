package hyrec

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hyrec/internal/core"
)

// seedCommunities registers two taste communities of `per` users each.
func seedCommunities(e *Engine, per int) {
	for i := 0; i < per; i++ {
		a := core.UserID(1 + i)
		b := core.UserID(100 + i)
		for j := 0; j < 6; j++ {
			e.Rate(tctx, a, core.ItemID((i+j)%10), true)
			e.Rate(tctx, b, core.ItemID(500+(i+j)%10), true)
		}
	}
}

// converge runs full job/execute/apply cycles for every user.
func converge(t *testing.T, e *Engine, w *Widget, users []core.UserID, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for _, u := range users {
			job, err := e.Job(tctx, u)
			if err != nil {
				t.Fatalf("job(%v): %v", u, err)
			}
			res, _ := w.Execute(job)
			if _, err := e.ApplyResult(tctx, res); err != nil {
				t.Fatalf("apply(%v): %v", u, err)
			}
		}
	}
}

func communityUsers(per int) []core.UserID {
	users := make([]core.UserID, 0, 2*per)
	for i := 0; i < per; i++ {
		users = append(users, core.UserID(1+i), core.UserID(100+i))
	}
	return users
}

// The full production stack at once: differential privacy on candidate
// profiles, a parallel widget, anonymiser rotation mid-run, then a
// snapshot/restore cycle — every feature composing without interfering.
func TestIntegrationPrivacyWorkersRotationPersistence(t *testing.T) {
	rr, err := NewRandomizedResponse(4, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	accountant := NewPrivacyAccountant(rr.Epsilon())

	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.CandidateFilter = accountant.Guard(rr.Filter())
	engine := NewEngine(cfg)
	widget := NewWidget(WithWorkers(4))

	const per = 12
	seedCommunities(engine, per)
	users := communityUsers(per)

	converge(t, engine, widget, users, 3)
	engine.RotateAnonymizer() // epoch change mid-run
	converge(t, engine, widget, users, 3)

	// Neighbourhoods must largely respect the community split despite the
	// ε=4 noise: count cross-community neighbours of user 1.
	hood, _ := engine.Neighbors(tctx, 1)
	if len(hood) == 0 {
		t.Fatal("user 1 has no neighbors")
	}
	cross := 0
	for _, v := range hood {
		if v >= 100 {
			cross++
		}
	}
	if cross > len(hood)/2 {
		t.Fatalf("privacy noise destroyed the communities: %d/%d cross-community in %v",
			cross, len(hood), hood)
	}
	if accountant.MaxSpent() == 0 {
		t.Fatal("accountant never charged")
	}

	// Snapshot, restore into a fresh engine, and verify identical state.
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := SaveSnapshot(path, CaptureSnapshot(engine)); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewEngine(cfg)
	if err := RestoreSnapshot(restored, snap); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		origHood, _ := engine.Neighbors(tctx, u)
		restHood, _ := restored.Neighbors(tctx, u)
		if !reflect.DeepEqual(origHood, restHood) {
			t.Fatalf("user %v: neighbors diverged after restore", u)
		}
		if !engine.Profiles().Get(u).Equal(restored.Profiles().Get(u)) {
			t.Fatalf("user %v: profile diverged after restore", u)
		}
	}

	// The restored engine keeps serving (fresh anonymiser, old state).
	job, err := restored.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.Execute(job)
	if _, err := restored.ApplyResult(tctx, res); err != nil {
		t.Fatalf("restored engine cannot serve: %v", err)
	}
}

// The permanent-noise variant keeps its guarantee through the engine: two
// jobs for the same user must embed the identical perturbed release of an
// unchanged candidate profile.
func TestIntegrationPermanentNoiseStableThroughEngine(t *testing.T) {
	rr, err := NewRandomizedResponse(1, 500, 3, WithPermanentNoise())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true // compare raw item IDs across jobs
	cfg.CandidateFilter = rr.Filter()
	engine := NewEngine(cfg)

	// Two users; user 2's profile will appear in user 1's candidate sets.
	for j := 0; j < 10; j++ {
		engine.Rate(tctx, 1, core.ItemID(j), true)
		engine.Rate(tctx, 2, core.ItemID(j), true)
	}

	release := func() []uint32 {
		job, err := engine.Job(tctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range job.Candidates {
			if c.ID == 2 {
				return c.Liked
			}
		}
		return nil
	}
	first := release()
	if first == nil {
		t.Skip("user 2 not sampled; population too small for candidate set")
	}
	for i := 0; i < 5; i++ {
		got := release()
		if got == nil {
			continue
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatalf("permanent noise re-randomised: %v vs %v", first, got)
		}
	}
}

// System option: the rotation timer fires on virtual-time boundaries and
// replays keep working; combined here with wire fidelity so rotation
// exercises the full encode path.
func TestIntegrationSystemRotationWithWireFidelity(t *testing.T) {
	sys := NewSystem(DefaultConfig(), WithWireFidelity(), WithAnonymizerRotation(time.Hour))
	for h := 0; h < 6; h++ {
		tm := time.Duration(h) * time.Hour
		sys.Tick(tm)
		for u := core.UserID(1); u <= 8; u++ {
			sys.Rate(tm, core.Rating{User: u, Item: core.ItemID((int(u) + h) % 5), Liked: true})
		}
	}
	if sys.Engine().Meter().JobBytes() == 0 {
		t.Fatal("no traffic metered")
	}
	if got := sys.Neighbors(1); len(got) == 0 {
		t.Fatal("no neighbors after replay with rotation")
	}
}
