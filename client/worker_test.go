package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec"
)

// newSchedServer boots an engine with the asynchronous scheduler and
// pre-rates n users so the staleness queue has work.
func newSchedServer(t *testing.T, mut func(*hyrec.Config), n int) (*hyrec.Engine, *httptest.Server) {
	t.Helper()
	cfg := hyrec.DefaultConfig()
	cfg.K = 3
	cfg.R = 3
	// No accidental expiry under a loaded -race CPU; churn tests
	// override with a short TTL explicitly.
	cfg.LeaseTTL = time.Minute
	if mut != nil {
		mut(&cfg)
	}
	eng := hyrec.NewEngine(cfg)
	srv := hyrec.NewServiceServer(eng, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })

	var ratings []hyrec.Rating
	for u := hyrec.UserID(1); u <= hyrec.UserID(n); u++ {
		for j := 0; j < 3; j++ {
			ratings = append(ratings, hyrec.Rating{User: u, Item: hyrec.ItemID((int(u) + j) % 7), Liked: true})
		}
	}
	if err := eng.RateBatch(tctx, ratings); err != nil {
		t.Fatal(err)
	}
	return eng, ts
}

// TestWorkerDrainsQueue runs the full remote worker loop: long-poll
// lease → widget compute → result post, until the staleness queue is
// empty and every user is refreshed — by one worker, and by four
// polling concurrently through one client.
func TestWorkerDrainsQueue(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, ts := newSchedServer(t, func(cfg *hyrec.Config) {
				cfg.LeaseTTL = time.Minute // nothing should expire in this test
			}, 8)
			c := New(ts.URL)
			defer c.Close()

			ws := make([]*Worker, workers)
			var wg sync.WaitGroup
			for i := range ws {
				ws[i] = NewWorker(c, WithPollBudget(100*time.Millisecond))
				wg.Add(1)
				go func(w *Worker) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						worked, err := w.RunOnce(tctx)
						if err != nil {
							t.Error(err)
							return
						}
						if !worked {
							return
						}
					}
				}(ws[i])
			}
			wg.Wait()
			var done, abandoned int64
			for _, w := range ws {
				d, a := w.Stats()
				done, abandoned = done+d, abandoned+a
			}
			if done != 8 || abandoned != 0 {
				t.Fatalf("workers done=%d abandoned=%d, want 8/0", done, abandoned)
			}
			if !eng.Scheduler().Quiet() {
				t.Fatalf("scheduler not quiet: %+v", eng.Scheduler().Stats())
			}
			for u := hyrec.UserID(1); u <= 8; u++ {
				if !eng.Scheduler().RefreshedUser(u) {
					t.Fatalf("user %d not refreshed", u)
				}
				hood, err := c.Neighbors(tctx, u)
				if err != nil {
					t.Fatal(err)
				}
				if len(hood) == 0 {
					t.Fatalf("user %d has empty KNN row after worker refresh", u)
				}
			}
		})
	}
}

// TestWorkerPoliteAbandonReissues: an abandoning worker acks done=false
// and the job is re-issued immediately to the next worker.
func TestWorkerPoliteAbandonReissues(t *testing.T) {
	eng, ts := newSchedServer(t, func(cfg *hyrec.Config) {
		cfg.LeaseTTL = time.Minute
	}, 1)
	c := New(ts.URL)
	defer c.Close()

	churny := NewWorker(c, WithPollBudget(100*time.Millisecond), WithAbandonProb(1, 1))
	worked, err := churny.RunOnce(tctx)
	if err != nil || !worked {
		t.Fatalf("churny RunOnce = %v, %v", worked, err)
	}
	if _, ab := churny.Stats(); ab != 1 {
		t.Fatalf("abandoned = %d, want 1", ab)
	}
	st := eng.Scheduler().Stats()
	if st.Abandoned != 1 || st.Reissued != 1 {
		t.Fatalf("scheduler stats %+v, want 1 abandoned / 1 reissued", st)
	}

	steady := NewWorker(c, WithPollBudget(time.Second))
	worked, err = steady.RunOnce(tctx)
	if err != nil || !worked {
		t.Fatalf("steady worker found no re-issued job: %v, %v", worked, err)
	}
	if done, _ := steady.Stats(); done != 1 {
		t.Fatal("steady worker did not complete the re-issued job")
	}
}

// TestWorkerSilentChurnAbsorbedByFallback is the crash model: the
// worker leases and vanishes, the lease expires, retries burn out, and
// the server-side fallback pool refreshes the row anyway.
func TestWorkerSilentChurnAbsorbedByFallback(t *testing.T) {
	eng, ts := newSchedServer(t, func(cfg *hyrec.Config) {
		cfg.LeaseTTL = 25 * time.Millisecond
		cfg.LeaseRetries = -1 // first expiry → fallback
		cfg.FallbackWorkers = 2
	}, 3)
	c := New(ts.URL)
	defer c.Close()

	vanish := NewWorker(c, WithPollBudget(100*time.Millisecond),
		WithAbandonProb(1, 1), WithSilentAbandon())
	for i := 0; i < 3; i++ {
		if worked, err := vanish.RunOnce(tctx); err != nil || !worked {
			t.Fatalf("vanishing worker lease %d: %v, %v", i, worked, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if eng.Scheduler().Quiet() && len(eng.Scheduler().Unrefreshed()) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := eng.Scheduler().Stats()
	if st.Expired == 0 || st.FallbackRuns == 0 {
		t.Fatalf("fallback never absorbed the churned leases: %+v", st)
	}
	if un := eng.Scheduler().Unrefreshed(); len(un) != 0 {
		t.Fatalf("users %v never refreshed (stats %+v)", un, st)
	}
}

// TestWorkerRunStopsOnCancel: Run is a clean loop — context
// cancellation ends it without error.
func TestWorkerRunStopsOnCancel(t *testing.T) {
	_, ts := newSchedServer(t, nil, 2)
	c := New(ts.URL)
	defer c.Close()

	w := NewWorker(c, WithPollBudget(50*time.Millisecond))
	ctx, cancel := context.WithTimeout(tctx, 300*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run returned %v on cancellation", err)
	}
	if done, _ := w.Stats(); done != 2 {
		t.Fatalf("Run completed %d jobs, want 2", done)
	}
}
