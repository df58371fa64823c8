package server

import (
	"context"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// jobWireBudget bounds the spliced-gzip bytes a job ships per pseudonym
// in its lists, on measureJobWire's population: 2.013 B/item with
// gap-coded lists (wire.JobFormat 2), against 2.951 B/item for the same
// jobs with absolute pseudonyms (Go 1.24's compress/flate, BestSpeed).
const jobWireBudget = 2.1

// jobBudgetCounts is one measurement: jobs served, pseudonyms in their
// lists, and the spliced gzip bytes they shipped in.
type jobBudgetCounts struct{ jobs, items, gzBytes int }

// measureJobWire builds an engine over an ML1-shaped population (a
// third of Table 2's ML1: 314 users, ~106 ratings each), warms every
// user's KNN row with two rounds of job → widget → result, and counts a
// third round. Single goroutine and seeded throughout, so every count
// repeats exactly.
func measureJobWire(t *testing.T) jobBudgetCounts {
	t.Helper()
	tr, err := dataset.Generate(dataset.Scaled(dataset.ML1Config(), 1.0/3))
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
			jsonBody, gzBody, err := e.AppendJobPayload(ctx, u, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			job, err := wire.DecodeJob(jsonBody)
			if err != nil {
				t.Fatal(err)
			}
			if round == 2 {
				c.jobs++
				c.gzBytes += len(gzBody)
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
// (§5.6): on a dense, warmed population, a job ships within
// jobWireBudget bytes of spliced gzip per pseudonym it carries. Gap
// coding is what holds it there.
func TestJobWireBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("two warmed dense populations take too long under -race")
	}
	c := measureJobWire(t)
	if c.jobs == 0 || c.items < 100*c.jobs {
		t.Fatalf("%d jobs carrying %d pseudonyms: the population is not dense", c.jobs, c.items)
	}
	perItem := float64(c.gzBytes) / float64(c.items)
	t.Logf("%d jobs, %d pseudonyms, %d gzip bytes: %.3f B/item", c.jobs, c.items, c.gzBytes, perItem)
	if perItem > jobWireBudget {
		t.Fatalf("jobs ship %.3f B of spliced gzip per pseudonym, want ≤ %.2f", perItem, jobWireBudget)
	}
	if again := measureJobWire(t); again != c {
		t.Fatalf("a second identical run counted %+v, the first %+v: the measurement is not deterministic", again, c)
	}
}
