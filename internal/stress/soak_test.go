package stress_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/stress"
)

// Race soak over the full hyrec.Service surface: every method —
// Rate, RateBatch, Job, NextJob/Ack, ApplyResult, Recommendations,
// Neighbors — hammered concurrently while the anonymiser rotates and new
// users keep arriving, against the lock-free user-slot reads. Run
// under -race in CI (the internal/stress package is on the race list);
// correctness here is "no race, no panic, no unexplained error", plus a
// handful of end-state invariants.

// soakService runs the mixed soak against svc for the given window.
func soakService(t *testing.T, svc server.Service, window time.Duration) {
	t.Helper()
	const users = 96
	const items = 400
	ctx := context.Background()

	// Seed the population so every op class has material to work with.
	var batch []core.Rating
	for u := 1; u <= users; u++ {
		batch = append(batch, core.Rating{User: core.UserID(u), Item: core.ItemID(u % items), Liked: true})
	}
	if err := svc.RateBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}

	rotor, canRotate := svc.(server.Rotator)
	acker, canAck := svc.(server.LeaseAcker)
	src, canPull := svc.(server.JobSource)
	widget := hyrec.NewWidget()
	var applied, jobs, rotations atomic.Int64

	workerErr := func(err error) error {
		// Stale epochs (rotation racing a result) and unknown leases
		// (a lease superseded mid-flight) are the protocol working.
		if err == nil || errors.Is(err, hyrec.ErrStaleEpoch) || errors.Is(err, hyrec.ErrUnknownLease) {
			return nil
		}
		return err
	}

	calls, failures := stress.ServiceThroughput(svc, 8, window,
		func(ctx context.Context, svc server.Service, worker, i int) error {
			u := core.UserID((worker*31+i)%users + 1)
			switch (worker + i) % 12 {
			case 0, 1, 2:
				return svc.Rate(ctx, u, core.ItemID(i%items), i%2 == 0)
			case 3:
				fresh := []core.Rating{
					{User: u, Item: core.ItemID(i % items), Liked: true},
					{User: core.UserID(users + (worker*17+i)%64 + 1), Item: core.ItemID((i + 7) % items), Liked: false},
				}
				return svc.RateBatch(ctx, fresh)
			case 4, 5, 6:
				job, err := svc.Job(ctx, u)
				if err != nil {
					return err
				}
				jobs.Add(1)
				if i%2 == 0 {
					res, _ := widget.Execute(job)
					if _, err := svc.ApplyResult(ctx, res); workerErr(err) != nil {
						return err
					}
					applied.Add(1)
				}
				return nil
			case 7:
				if !canPull {
					_, err := svc.Neighbors(ctx, u)
					return err
				}
				pollCtx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
				job, err := src.NextJob(pollCtx)
				cancel()
				if err != nil || job == nil {
					return err
				}
				if job.Lease != 0 && i%3 == 0 && canAck {
					// A churny worker: abandon politely for re-issue.
					return workerErr(acker.Ack(ctx, job.Lease, false))
				}
				res, _ := widget.Execute(job)
				if _, err := svc.ApplyResult(ctx, res); workerErr(err) != nil {
					return err
				}
				applied.Add(1)
				return nil
			case 8, 9:
				_, err := svc.Neighbors(ctx, u)
				return err
			case 10:
				_, err := svc.Recommendations(ctx, u, 10)
				return err
			default:
				if canRotate && i%64 == 63 {
					rotor.RotateAnonymizer()
					rotations.Add(1)
					return nil
				}
				_, err := svc.Recommendations(ctx, u, 0)
				return err
			}
		})

	if calls == 0 {
		t.Fatal("soak completed zero calls")
	}
	if failures != 0 {
		t.Fatalf("soak saw %d/%d unexplained failures", failures, calls)
	}
	if jobs.Load() == 0 || applied.Load() == 0 {
		t.Fatalf("soak never exercised the personalization cycle: jobs=%d applied=%d", jobs.Load(), applied.Load())
	}
	if canRotate && rotations.Load() == 0 {
		t.Fatal("soak never rotated the anonymiser")
	}

	// End-state invariants: the population grew past the seed (new users
	// arrived), and applied results materialized KNN rows somewhere.
	hood := 0
	for u := 1; u <= users; u++ {
		ns, err := svc.Neighbors(ctx, core.UserID(u))
		if err != nil {
			t.Fatal(err)
		}
		hood += len(ns)
	}
	if hood == 0 {
		t.Fatal("no KNN rows survived the soak")
	}
}

func soakWindow(t *testing.T) time.Duration {
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return 1200 * time.Millisecond
}

// TestServiceSoakEngine soaks a single engine with the async scheduler
// and fallback pool on, so the lease lifecycle participates.
func TestServiceSoakEngine(t *testing.T) {
	cfg := hyrec.DefaultConfig()
	cfg.LeaseTTL = 50 * time.Millisecond
	cfg.FallbackWorkers = 2
	eng := hyrec.NewEngine(cfg)
	defer eng.Close()
	soakService(t, eng, soakWindow(t))
}

// TestServiceSoakCluster4 soaks a 4-partition cluster: routing,
// cross-partition exchange, per-partition snapshots and the shared
// fallback budget all under fire at once.
func TestServiceSoakCluster4(t *testing.T) {
	cfg := hyrec.DefaultConfig()
	cfg.LeaseTTL = 50 * time.Millisecond
	cfg.FallbackWorkers = 2
	cl := hyrec.NewCluster(cfg, 4)
	defer cl.Close()
	soakService(t, cl, soakWindow(t))
}
