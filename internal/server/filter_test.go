package server

import (
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// seedCommunity registers n users who all like items [0, itemsEach).
func seedCommunity(e *Engine, n, itemsEach int) {
	for u := 1; u <= n; u++ {
		for i := 0; i < itemsEach; i++ {
			e.Rate(tctx, core.UserID(u), core.ItemID(i), true)
		}
	}
}

func TestCandidateFilterAppliedToCandidatesOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	filtered := 0
	cfg.CandidateFilter = func(p core.Profile) core.Profile {
		filtered++
		// Redact everything: candidates come out empty.
		return core.NewProfile(p.User())
	}
	e := NewEngine(cfg)
	seedCommunity(e, 8, 5)

	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if filtered == 0 {
		t.Fatal("filter never invoked")
	}
	if len(job.Profile.Liked) != 5 {
		t.Fatalf("own profile was filtered: %v", job.Profile.Liked)
	}
	for _, c := range job.Candidates {
		if len(c.Liked) != 0 || len(c.Disliked) != 0 {
			t.Fatalf("candidate %d escaped the filter: %+v", c.ID, c)
		}
	}
}

func TestCandidateFilterBypassesProfileCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	calls := 0
	cfg.CandidateFilter = func(p core.Profile) core.Profile {
		calls++
		return p
	}
	e := NewEngine(cfg)
	seedCommunity(e, 6, 3)

	// Two identical payload builds: with a (stateful) filter the cache must
	// not absorb the second build's candidate encodings.
	if _, _, err := e.AppendJobPayload(tctx, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	first := calls
	if _, _, err := e.AppendJobPayload(tctx, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if calls <= first {
		t.Fatalf("filter not re-invoked on second job (calls %d -> %d)", first, calls)
	}
}

func TestCandidateFilterPayloadMatchesJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	cfg.CandidateFilter = func(p core.Profile) core.Profile {
		return p.Truncate(2) // deterministic filter so both paths agree
	}
	e := NewEngine(cfg)
	seedCommunity(e, 6, 5)

	jsonBody, _, err := e.AppendJobPayload(tctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.DecodeJob(jsonBody)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range decoded.Candidates {
		if len(c.Liked)+len(c.Disliked) > 2 {
			t.Fatalf("candidate exceeds filter bound: %+v", c)
		}
	}
}
