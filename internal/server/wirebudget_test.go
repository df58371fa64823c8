package server

import (
	"context"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// The job byte budgets bound the bytes a job ships per pseudonym in its
// lists, in job format 3, on measureJobWire's populations. The dense
// ML1 budget was 2.1 B/item of spliced gzip over the gap-coded JSON of
// format 2, which measured 2.013; format 3 measures 1.656. The sparse
// Digg budget is new with format 3, which measures 2.477 there.
const (
	jobWireBudget       = 1.75
	sparseJobWireBudget = 2.6
)

// jobBudgetCounts is one measurement: jobs served, pseudonyms in their
// lists, and the bytes they shipped in.
type jobBudgetCounts struct{ jobs, items, bytes int }

// measureJobWire builds an engine over a population generated from cfg,
// warms every user's KNN row with two rounds of job → widget → result,
// and counts a third round. Single goroutine and seeded throughout, so
// every count repeats exactly.
func measureJobWire(t *testing.T, cfg dataset.GenConfig) jobBudgetCounts {
	t.Helper()
	tr, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratings := make([]core.Rating, 0, len(tr.Events))
	for _, ev := range dataset.Binarize(tr) {
		ratings = append(ratings, ev.Rating())
	}
	e := NewEngine(DefaultConfig())
	defer e.Close()
	ctx := context.Background()
	if err := e.RateBatch(ctx, ratings); err != nil {
		t.Fatal(err)
	}
	users := e.Profiles().Users()
	w := widget.New()
	var c jobBudgetCounts
	for round := 0; round < 3; round++ {
		for _, u := range users {
			body, err := e.AppendJob(ctx, u, nil)
			if err != nil {
				t.Fatal(err)
			}
			job, err := wire.DecodeJob(body)
			if err != nil {
				t.Fatal(err)
			}
			if round == 2 {
				c.jobs++
				c.bytes += len(body)
				c.items += len(job.Profile.Liked) + len(job.Profile.Disliked)
				for _, m := range job.Candidates {
					c.items += len(m.Liked) + len(m.Disliked)
				}
			}
			res, _ := w.Execute(job)
			if _, err := e.ApplyResult(ctx, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestJobWireBudget is the tier-1 guard on a personalization's bytes
// (§5.6): a warmed job ships within its budget of bytes per pseudonym it
// carries, on a dense population — a third of Table 2's ML1: 314 users,
// ~106 ratings each — and on a sparse Digg-shaped one — a fiftieth of
// Table 2's Digg: 1 183 users, ~13 ratings each. Gap coding is what
// holds the bytes there.
func TestJobWireBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("four warmed populations take too long under -race")
	}
	for _, tc := range []struct {
		name   string
		cfg    dataset.GenConfig
		perJob int // pseudonyms a job carries at the least, on average
		budget float64
	}{
		{"dense ML1", dataset.Scaled(dataset.ML1Config(), 1.0/3), 100, jobWireBudget},
		{"sparse Digg", dataset.Scaled(dataset.DiggConfig(), 1.0/50), 10, sparseJobWireBudget},
	} {
		c := measureJobWire(t, tc.cfg)
		if c.jobs == 0 || c.items < tc.perJob*c.jobs {
			t.Fatalf("%s: %d jobs carrying %d pseudonyms: the population is not the shape it names", tc.name, c.jobs, c.items)
		}
		perItem := float64(c.bytes) / float64(c.items)
		t.Logf("%s: %d jobs, %d pseudonyms, %d bytes: %.3f B/item", tc.name, c.jobs, c.items, c.bytes, perItem)
		if perItem > tc.budget {
			t.Fatalf("%s: jobs ship %.3f B per pseudonym, want ≤ %.2f", tc.name, perItem, tc.budget)
		}
		if again := measureJobWire(t, tc.cfg); again != c {
			t.Fatalf("%s: a second identical run counted %+v, the first %+v: the measurement is not deterministic", tc.name, again, c)
		}
	}
}
