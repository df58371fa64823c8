package server

import (
	"math/rand"

	"hyrec/internal/core"
)

// This file provides the ablation variants of the Section 3.1 candidate
// rule. The paper motivates each component of the default sampler —
// one-hop ∪ two-hop neighbours for exploitation, k random users so "the
// process will [not get] stuck into a local optimum" — and the
// SamplerAblation experiment quantifies both claims by replaying the same
// workload under each variant. All variants implement the public Sampler
// customization point (Table 1), so they double as worked examples for
// content providers plugging their own strategies.

// RandomOnlySampler draws every candidate uniformly at random, ignoring
// the KNN graph: pure exploration. It receives the same candidate budget
// as the default rule (2k + k²) so comparisons measure strategy, not
// sample size. Convergence degrades from per-iteration refinement to
// coupon collecting — the "random-only" baseline of epidemic clustering
// papers.
type RandomOnlySampler struct {
	Engine *Engine
}

var _ Sampler = RandomOnlySampler{}

// Sample implements Sampler.
func (s RandomOnlySampler) Sample(u core.UserID, k int) []core.UserID {
	return s.Engine.RandomUsers(core.MaxCandidateSetSize(k), u)
}

// NoRandomSampler keeps the one-hop ∪ two-hop aggregation but drops the
// random component: pure exploitation. Once the neighbourhood closes over
// a clique, no outside candidate can ever enter — the local optimum the
// paper's random users exist to escape. (Users whose KNN is still empty
// receive one random bootstrap candidate; with a forever-empty candidate
// set the comparison would be vacuous.)
type NoRandomSampler struct {
	Engine *Engine
}

var _ Sampler = NoRandomSampler{}

// Sample implements Sampler.
func (s NoRandomSampler) Sample(u core.UserID, k int) []core.UserID {
	e := s.Engine
	lookup := func(v core.UserID) []core.UserID { return e.knn.Get(v) }
	noRandom := func(*rand.Rand, int, core.UserID) []core.UserID { return nil }
	e.skipSeedDraw(u)
	out := core.BuildCandidateSet(u, k, lookup, noRandom, nil)
	if len(out) == 0 {
		return e.RandomUsers(1, u)
	}
	return out
}
