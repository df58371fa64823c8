package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// tctx is the context used by tests exercising the context-aware
// Service methods.
var tctx = context.Background()

func testConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Seed = 42
	return cfg
}

// cycle runs one full Rate-free personalization round trip against the
// cluster and returns the recommendations.
func cycle(t *testing.T, c *Cluster, w *widget.Widget, u core.UserID) []core.ItemID {
	t.Helper()
	job, err := c.Job(tctx, u)
	if err != nil {
		t.Fatalf("Job(%d): %v", u, err)
	}
	res, _ := w.Execute(job)
	recs, err := c.ApplyResult(tctx, res)
	if err != nil {
		t.Fatalf("ApplyResult(%d): %v", u, err)
	}
	return recs
}

// TestSinglePartitionEquivalence pins the cluster's compatibility
// contract: a 1-partition cluster must produce bit-for-bit the same
// recommendations and neighborhoods as a plain engine under the same
// seed and workload.
func TestSinglePartitionEquivalence(t *testing.T) {
	cfg := testConfig()
	engine := server.NewEngine(cfg)
	clus := New(cfg, 1)
	w := widget.New()

	const users = 40
	for round := 0; round < 3; round++ {
		for u := core.UserID(1); u <= users; u++ {
			item := core.ItemID(uint32(u)*7 + uint32(round))
			engine.Rate(tctx, u, item, true)
			clus.Rate(tctx, u, item, true)

			ejob, err := engine.Job(tctx, u)
			if err != nil {
				t.Fatalf("engine Job(%d): %v", u, err)
			}
			eres, _ := w.Execute(ejob)
			erecs, err := engine.ApplyResult(tctx, eres)
			if err != nil {
				t.Fatalf("engine ApplyResult(%d): %v", u, err)
			}

			crecs := cycle(t, clus, w, u)
			if fmt.Sprint(erecs) != fmt.Sprint(crecs) {
				t.Fatalf("round %d user %d: recommendations diverged: engine=%v cluster=%v",
					round, u, erecs, crecs)
			}
			ehood, _ := engine.Neighbors(tctx, u)
			chood, _ := clus.Neighbors(tctx, u)
			if fmt.Sprint(ehood) != fmt.Sprint(chood) {
				t.Fatalf("round %d user %d: neighborhoods diverged: engine=%v cluster=%v",
					round, u, ehood, chood)
			}
		}
	}
}

// TestPartitionRoutingStableUnderChurn verifies that the user→partition
// mapping is a pure function of the user ID: it never changes as other
// users join, and the population spreads roughly evenly.
func TestPartitionRoutingStableUnderChurn(t *testing.T) {
	c := New(testConfig(), 4)

	const existing = 500
	before := make(map[core.UserID]int, existing)
	for u := core.UserID(1); u <= existing; u++ {
		p := c.Partition(u)
		if p < 0 || p >= 4 {
			t.Fatalf("Partition(%d) = %d out of range", u, p)
		}
		before[u] = p
		c.Rate(tctx, u, core.ItemID(u), true)
	}

	// Churn: thousands of new users join (and rate, so they register).
	for u := core.UserID(10_000); u < 12_000; u++ {
		c.Rate(tctx, u, core.ItemID(u), true)
	}

	counts := make([]int, 4)
	for u, want := range before {
		got := c.Partition(u)
		if got != want {
			t.Fatalf("Partition(%d) moved %d → %d after churn", u, want, got)
		}
		counts[got]++
	}
	for p, n := range counts {
		if n < existing/8 || n > existing/2 {
			t.Errorf("partition %d owns %d/%d existing users; routing is badly skewed", p, n, existing)
		}
	}
}

// TestProfilesStayDisjoint verifies that each user's profile is stored
// only on the owning partition — foreign profiles are read through, never
// copied — so cluster-wide user counts are exact sums.
func TestProfilesStayDisjoint(t *testing.T) {
	c := New(testConfig(), 4)
	w := widget.New()
	const users = 200
	for u := core.UserID(1); u <= users; u++ {
		c.Rate(tctx, u, core.ItemID(u%17), true)
		cycle(t, c, w, u)
	}
	for u := core.UserID(1); u <= users; u++ {
		owner := c.Partition(u)
		for i := 0; i < c.NumPartitions(); i++ {
			known := c.Engine(i).Profiles().Known(u)
			if known != (i == owner) {
				t.Fatalf("user %d: partition %d Known=%v (owner %d)", u, i, known, owner)
			}
		}
	}
	if got := c.Len(); got != users {
		t.Fatalf("cluster Len = %d, want %d", got, users)
	}
	if got := len(c.Users()); got != users {
		t.Fatalf("len(Users) = %d, want %d", got, users)
	}
}

// TestCrossPartitionExchange verifies the tentpole mechanism: candidate
// sets contain users owned by sibling partitions, and those candidates
// carry their real (non-empty) profiles resolved from the owning
// partition's table.
func TestCrossPartitionExchange(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAnonymizer = true // inspect real IDs inside jobs
	c := New(cfg, 4)

	const users = 100
	for u := core.UserID(1); u <= users; u++ {
		for j := 0; j < 5; j++ {
			c.Rate(tctx, u, core.ItemID(uint32(u)%20+uint32(j)), true)
		}
	}

	foreign, foreignWithProfile := 0, 0
	for u := core.UserID(1); u <= users; u++ {
		job, err := c.Job(tctx, u)
		if err != nil {
			t.Fatalf("Job(%d): %v", u, err)
		}
		home := c.Partition(u)
		for _, cand := range job.Candidates {
			cu := core.UserID(cand.ID)
			if c.Partition(cu) == home {
				continue
			}
			foreign++
			if len(cand.Liked) > 0 {
				foreignWithProfile++
			}
		}
	}
	if foreign == 0 {
		t.Fatal("no cross-partition candidates in any job; exchange is not happening")
	}
	if foreignWithProfile == 0 {
		t.Fatal("cross-partition candidates all have empty profiles; foreign profile resolution is broken")
	}
}

// TestExchangeReachesKNN verifies foreign users actually enter
// neighborhoods: after a few rounds, at least one user's KNN row contains
// a user owned by a sibling partition.
func TestExchangeReachesKNN(t *testing.T) {
	c := New(testConfig(), 4)
	w := widget.New()
	const users = 100
	// Similar users land in different partitions: overlapping profiles.
	for u := core.UserID(1); u <= users; u++ {
		for j := 0; j < 6; j++ {
			c.Rate(tctx, u, core.ItemID(uint32(u)%5+uint32(j)), true)
		}
	}
	for round := 0; round < 3; round++ {
		for u := core.UserID(1); u <= users; u++ {
			cycle(t, c, w, u)
		}
	}
	crossEdges := 0
	for u := core.UserID(1); u <= users; u++ {
		hood, _ := c.Neighbors(tctx, u)
		for _, v := range hood {
			if c.Partition(v) != c.Partition(u) {
				crossEdges++
			}
		}
	}
	if crossEdges == 0 {
		t.Fatal("no cross-partition KNN edges after 3 rounds; the exchange is not improving neighborhoods")
	}
}

// TestExchangeAblation verifies SetExchange(0) really isolates
// partitions: candidate sets then never reference foreign users.
func TestExchangeAblation(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAnonymizer = true
	c := New(cfg, 4)
	c.SetExchange(0)
	const users = 80
	for u := core.UserID(1); u <= users; u++ {
		c.Rate(tctx, u, core.ItemID(u%13), true)
	}
	for u := core.UserID(1); u <= users; u++ {
		job, err := c.Job(tctx, u)
		if err != nil {
			t.Fatalf("Job(%d): %v", u, err)
		}
		for _, cand := range job.Candidates {
			if c.Partition(core.UserID(cand.ID)) != c.Partition(u) {
				t.Fatalf("user %d: foreign candidate %d with exchange disabled", u, cand.ID)
			}
		}
	}
}

// TestApplyResultRouting verifies results reach the partition whose
// anonymiser minted their pseudonyms, and that results from evicted
// epochs are rejected as unroutable.
func TestApplyResultRouting(t *testing.T) {
	c := New(testConfig(), 4)
	w := widget.New()
	const users = 60
	for u := core.UserID(1); u <= users; u++ {
		c.Rate(tctx, u, core.ItemID(u%9), true)
		cycle(t, c, w, u)
	}
	for u := core.UserID(1); u <= users; u++ {
		hood, _ := c.Neighbors(tctx, u)
		if len(hood) == 0 && c.Len() > 1 {
			// At least the second round should find neighbors for everyone.
			job, _ := c.Job(tctx, u)
			res, _ := w.Execute(job)
			if _, err := c.ApplyResult(tctx, res); err != nil {
				t.Fatalf("second-round ApplyResult(%d): %v", u, err)
			}
		}
	}

	// A result minted now must become unroutable once its epoch is evicted
	// (each anonymiser keeps only the current and previous epoch).
	u := core.UserID(1)
	job, err := c.Job(tctx, u)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := w.Execute(job)
	c.RotateAnonymizers()
	c.RotateAnonymizers()
	if _, err := c.ApplyResult(tctx, res); err == nil {
		t.Fatal("ApplyResult accepted a result from an evicted epoch")
	}
}

// TestConcurrentRateJob hammers a 4-partition cluster with concurrent
// full cycles across partition boundaries while anonymisers rotate; run
// under -race it doubles as the cluster's data-race check. Results whose
// epoch was evicted by two concurrent rotations are legitimately rejected
// (the single-engine contract), so the test tolerates rejections but
// requires the vast majority of cycles to land.
func TestConcurrentRateJob(t *testing.T) {
	c := New(testConfig(), 4)
	w := widget.New()
	const (
		workers = 8
		ops     = 150
	)
	var wg sync.WaitGroup
	var applied, rejected atomic.Int64
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				u := core.UserID(uint32(g*ops+i)%97 + 1)
				c.Rate(tctx, u, core.ItemID(uint32(i)%31), i%5 != 0)
				job, err := c.Job(tctx, u)
				if err != nil {
					errs <- fmt.Errorf("Job(%d): %w", u, err)
					return
				}
				res, _ := w.Execute(job)
				switch _, err := c.ApplyResult(tctx, res); {
				case err == nil:
					applied.Add(1)
				case errors.Is(err, ErrUnroutable), errors.Is(err, server.ErrStaleEpoch):
					rejected.Add(1) // evicted epoch under concurrent rotation
				default:
					errs <- fmt.Errorf("ApplyResult(%d): %w", u, err)
					return
				}
				if i%10 == 0 {
					c.RotateAnonymizers()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	total := applied.Load() + rejected.Load()
	if applied.Load() < total*9/10 {
		t.Fatalf("only %d/%d cycles applied; rotation rejections dominate", applied.Load(), total)
	}
}

// TestEvictedEpochForeignInversionIsStale builds the case behind the
// old TestConcurrentRateJob flake directly: the partition that minted a
// result's epoch has rotated past it, while a sibling still resolving
// that epoch inverts the pseudonym to an unregistered ID it happens to
// own. The result is stale — it must answer ErrStaleEpoch, not be
// claimed by the sibling and bounce as an unknown user.
func TestEvictedEpochForeignInversionIsStale(t *testing.T) {
	c := New(testConfig(), 4)
	const minter = 0
	for u := core.UserID(1); u <= 40; u++ {
		if err := c.Rate(tctx, u, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	job, err := c.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	epoch := job.Epoch
	c.Engine(minter).RotateAnonymizer()
	c.Engine(minter).RotateAnonymizer()
	if _, ok := c.Engine(minter).ResolveUser(1, epoch); ok {
		t.Fatal("minter still resolves an epoch two rotations old")
	}
	// Find a pseudonym some sibling inverts to an ID it owns but never
	// registered, and no sibling inverts to a registered user.
	var alias uint32
	for a := uint32(1); alias == 0 && a < 10000; a++ {
		claimed, known := false, false
		for i := 1; i < 4; i++ {
			u, ok := c.Engine(i).ResolveUser(core.UserID(a), epoch)
			if !ok {
				t.Fatalf("partition %d evicted epoch %d too", i, epoch)
			}
			if c.KnownUser(u) {
				known = true
			}
			if c.Partition(u) == i {
				claimed = true
			}
		}
		if claimed && !known {
			alias = a
		}
	}
	if alias == 0 {
		t.Fatal("no foreign inversion found")
	}
	_, err = c.ApplyResult(tctx, &wire.Result{UID: alias, Epoch: epoch, Neighbors: []uint32{alias}})
	if !errors.Is(err, server.ErrStaleEpoch) {
		t.Fatalf("ApplyResult of an evicted-epoch result = %v, want ErrStaleEpoch", err)
	}
}

// TestPartitionSeedsDiffer guards the seed-lane derivation: sibling
// engines must not share RNG streams, and partition 0 must keep the
// configured seed (the 1-partition equivalence depends on it).
func TestPartitionSeedsDiffer(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, 4)
	seen := make(map[int64]bool)
	for i := 0; i < 4; i++ {
		s := c.Engine(i).Config().Seed
		if seen[s] {
			t.Fatalf("duplicate partition seed %d", s)
		}
		seen[s] = true
	}
	if got := c.Engine(0).Config().Seed; got != cfg.Seed {
		t.Fatalf("partition 0 seed = %d, want the configured %d", got, cfg.Seed)
	}
}

// TestUnroutableResult verifies garbage results are rejected rather than
// applied to an arbitrary partition.
func TestUnroutableResult(t *testing.T) {
	c := New(testConfig(), 4)
	c.Rate(tctx, 1, 1, true)
	res := &wire.Result{UID: 12345, Epoch: 99}
	if _, err := c.ApplyResult(tctx, res); err == nil {
		t.Fatal("ApplyResult accepted a result with an unknown epoch")
	}
}
