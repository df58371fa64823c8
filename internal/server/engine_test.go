package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// tctx is the context used by tests exercising the context-aware
// Service methods.
var tctx = context.Background()

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.R = 5
	return cfg
}

func TestNewEnginePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=0")
		}
	}()
	NewEngine(Config{K: 0, R: 1})
}

func TestRateCreatesProfile(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 10, true)
	p := e.Profiles().Get(1)
	if !p.LikedContains(10) {
		t.Fatal("rating not recorded")
	}
}

func TestJobContainsProfileAndCandidates(t *testing.T) {
	e := NewEngine(testConfig())
	for u := core.UserID(1); u <= 10; u++ {
		e.Rate(tctx, u, core.ItemID(u%3), true)
	}
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.K != 3 || job.R != 5 {
		t.Fatalf("job params: %+v", job)
	}
	if len(job.Profile.Liked) != 1 {
		t.Fatalf("own profile: %+v", job.Profile)
	}
	// With an empty KNN table the sampler returns k random users.
	if len(job.Candidates) == 0 || len(job.Candidates) > core.MaxCandidateSetSize(3) {
		t.Fatalf("candidate count = %d", len(job.Candidates))
	}
}

func TestJobForBrandNewUserRegistersHer(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 2, 1, true)
	if _, err := e.Job(tctx, 99); err != nil {
		t.Fatal(err)
	}
	if !e.Profiles().Known(99) {
		t.Fatal("new user not registered by Job")
	}
}

func TestFullCycleUpdatesKNNTable(t *testing.T) {
	e := NewEngine(testConfig())
	// Three users with overlapping tastes.
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 1, 2, true)
	e.Rate(tctx, 2, 1, true)
	e.Rate(tctx, 2, 2, true)
	e.Rate(tctx, 3, 99, true)

	w := widget.New()
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatal(err)
	}
	hood, _ := e.Neighbors(tctx, 1)
	if len(hood) == 0 {
		t.Fatal("KNN table not updated")
	}
	// User 2 (identical profile) must rank first.
	if hood[0] != 2 {
		t.Fatalf("best neighbor = %v, want 2", hood[0])
	}
	for _, v := range hood {
		if v == 1 {
			t.Fatal("user is her own neighbor")
		}
	}
}

func TestApplyResultStaleEpoch(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job)
	// Rotate twice: the job's epoch is now unresolvable.
	e.RotateAnonymizer()
	e.RotateAnonymizer()
	if _, err := e.ApplyResult(tctx, res); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
}

func TestApplyResultOneRotationOK(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 2, 1, true)
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job)
	e.RotateAnonymizer() // one rotation: previous epoch must still apply
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatalf("one-epoch-old result rejected: %v", err)
	}
}

func TestApplyResultTranslatesRecommendations(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 2, 1, true)
	e.Rate(tctx, 2, 7, true) // item 7 unseen by user 1 → should be recommended
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job)
	recs, err := e.ApplyResult(tctx, res)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, item := range recs {
		if item == 7 {
			found = true
		}
		if item == 1 {
			t.Fatal("recommended an already-seen item")
		}
	}
	if !found {
		t.Fatalf("item 7 not recommended: %v", recs)
	}
}

func TestAnonymizationHidesIDsOnWire(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 2, 1, true)
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.UID == 1 {
		t.Error("uid not anonymised")
	}
	for _, c := range job.Candidates {
		if c.ID == 2 {
			t.Error("candidate uid not anonymised")
		}
	}
}

func TestDisableAnonymizer(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg)
	e.Rate(tctx, 1, 1, true)
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.UID != 1 {
		t.Fatalf("uid = %d with anonymiser disabled", job.UID)
	}
}

func TestJobPayloadCachedMatchesUncached(t *testing.T) {
	mk := func(disableCache bool) []byte {
		cfg := testConfig()
		cfg.DisableProfileCache = disableCache
		cfg.DisableAnonymizer = true // same IDs on both sides
		cfg.Seed = 7
		e := NewEngine(cfg)
		for u := core.UserID(1); u <= 20; u++ {
			for i := core.ItemID(0); i < 5; i++ {
				e.Rate(tctx, u, i+core.ItemID(u), i%2 == 0)
			}
		}
		jsonBody, gz, err := e.AppendJobPayload(tctx, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the payload round-trips through gzip.
		raw, err := wire.Decompress(gz)
		if err != nil || !bytes.Equal(raw, jsonBody) {
			t.Fatal("gzip payload mismatch")
		}
		return jsonBody
	}
	withCache := mk(false)
	withoutCache := mk(true)
	if !bytes.Equal(withCache, withoutCache) {
		t.Fatalf("cached assembly differs:\n%s\n%s", withCache, withoutCache)
	}
}

func TestJobPayloadParseable(t *testing.T) {
	e := NewEngine(testConfig())
	for u := core.UserID(1); u <= 10; u++ {
		e.Rate(tctx, u, core.ItemID(u), true)
	}
	jsonBody, _, err := e.AppendJobPayload(tctx, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(jsonBody)
	if err != nil {
		t.Fatalf("assembled JSON unparseable: %v\n%s", err, jsonBody)
	}
	if job.K != 3 {
		t.Fatalf("job = %+v", job)
	}
}

func TestJobPayloadMeters(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	if _, _, err := e.AppendJobPayload(tctx, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.Meter().JobBytes() == 0 {
		t.Fatal("meter not updated")
	}
}

// TestApplyResultMetersWireBytes: a folded result is credited with its
// exact encoded size, whatever the width of its pseudonyms: items below
// 2^16 alias inside that band, larger items and all users do not.
func TestApplyResultMetersWireBytes(t *testing.T) {
	e := NewEngine(testConfig())
	defer e.Close()
	for u := core.UserID(1); u <= 3; u++ {
		e.Rate(tctx, u, 7, true)
		e.Rate(tctx, u, core.ItemID(100_000+u), true)
	}
	anon := e.anonView()
	res := &wire.Result{
		UID:             uint32(anon.AliasUser(1)),
		Epoch:           anon.Epoch(),
		Neighbors:       []uint32{uint32(anon.AliasUser(2)), uint32(anon.AliasUser(3))},
		Recommendations: []uint32{uint32(anon.AliasItem(7)), uint32(anon.AliasItem(100_002))},
	}
	if in, out := res.Recommendations[0], res.Recommendations[1]; in >= 1<<16 || out < 1<<16 {
		t.Fatalf("item aliases %d, %d: want one inside the 16-bit band and one outside", in, out)
	}
	want := int64(len(wire.AppendResult(nil, res)))
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatal(err)
	}
	if got := e.Meter().ResultBytes(); got != want {
		t.Fatalf("meter credited %d result bytes, the result is %d on the wire", got, want)
	}
}

func TestMaxProfileItemsBoundsCandidates(t *testing.T) {
	cfg := testConfig()
	cfg.MaxProfileItems = 4
	e := NewEngine(cfg)
	for i := core.ItemID(0); i < 50; i++ {
		e.Rate(tctx, 1, i, true)
		e.Rate(tctx, 2, i, true)
	}
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range job.Candidates {
		if len(c.Liked)+len(c.Disliked) > 4 {
			t.Fatalf("candidate profile exceeds bound: %d items", len(c.Liked)+len(c.Disliked))
		}
	}
	// The user's own profile is not truncated (server-held, not shared).
	if len(job.Profile.Liked) != 50 {
		t.Fatalf("own profile truncated: %d", len(job.Profile.Liked))
	}
}

func TestSetSamplerCustom(t *testing.T) {
	e := NewEngine(testConfig())
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 2, 2, true)
	e.SetSampler(samplerFunc(func(u core.UserID, k int) []core.UserID {
		return []core.UserID{2}
	}))
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Candidates) != 1 {
		t.Fatalf("custom sampler ignored: %d candidates", len(job.Candidates))
	}
}

type samplerFunc func(core.UserID, int) []core.UserID

func (f samplerFunc) Sample(u core.UserID, k int) []core.UserID { return f(u, k) }

func TestSamplerUsesTwoHopNeighbors(t *testing.T) {
	e := NewEngine(testConfig())
	for u := core.UserID(1); u <= 6; u++ {
		e.Rate(tctx, u, 1, true)
	}
	e.KNN().Put(1, []core.UserID{2})
	e.KNN().Put(2, []core.UserID{3})
	got := e.sampler.Sample(1, 3)
	has := map[core.UserID]bool{}
	for _, u := range got {
		has[u] = true
	}
	if !has[2] || !has[3] {
		t.Fatalf("sample %v missing one-hop (2) or two-hop (3)", got)
	}
}

func TestEngineConcurrentTraffic(t *testing.T) {
	e := NewEngine(testConfig())
	for u := core.UserID(0); u < 32; u++ {
		e.Rate(tctx, u, core.ItemID(u%7), true)
	}
	w := widget.New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				u := core.UserID((g*31 + i) % 32)
				e.Rate(tctx, u, core.ItemID(i%50), i%3 != 0)
				_, gz, err := e.AppendJobPayload(tctx, u, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				res, _, err := w.ExecutePayload(gz)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.ApplyResult(tctx, res); err != nil && !errors.Is(err, ErrStaleEpoch) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent epoch rotation exercises the stale-epoch path.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			e.RotateAnonymizer()
		}
	}()
	wg.Wait()
	<-done
}
