// Command hyrec-server runs a standalone HyRec server exposing the
// paper's web API plus the versioned /v1 batch protocol — the Go
// analogue of the bundled Jetty deployment of Section 4.1.
//
// Usage:
//
//	hyrec-server -addr :8080 -k 10 -r 10 -rotate 1h \
//	    -snapshot state.snap -snapshot-interval 5m
//	hyrec-server -addr :8080 -partitions 8
//
// Endpoints: the legacy Table-1 set (/online, /neighbors, /rate,
// /recommendations, /stats, /healthz) and /v1/{rate,job,result,recs,
// neighbors} for the typed client (hyrec/client).
//
// With -partitions N (N > 1), the server runs a user-partitioned cluster
// of N engines behind the same web API (see internal/cluster). Both
// deployment shapes implement hyrec.Service, so one code path serves
// either. The partition count is fixed for the life of the process;
// capacity grows by adding machines (cmd/hyrec-node). Snapshots are
// cluster-aware: with -snapshot and -partitions N, the state lives in
// one frame per partition (state.snap.p0 … .pN-1), each saved with an
// atomic rename and stamped with its topology; a restart with a
// different -partitions value restores by replay (each user routes
// through the new consistent-hash ring to her owner) instead of
// refusing.
//
// With -lease-ttl or -fallback-workers set, the asynchronous job
// scheduler runs (see internal/sched): every issued job carries a lease,
// ratings enqueue staleness-priority refresh work that pull-based
// workers (client.Worker, GET /v1/job?worker=1) drain, expired leases
// are re-issued, and -fallback-workers bounds a server-side pool that
// executes jobs locally when browsers churn out or nobody computes for a
// user. On a cluster the fallback budget is shared across partitions.
//
// With -debug-addr set, net/http/pprof answers under /debug/pprof/ on that
// separate address only; the public address never serves it.
//
// With -snapshot set, the server restores the profile and KNN tables from
// the snapshot file at startup (if it exists), saves them periodically,
// and saves once more on SIGINT/SIGTERM before exiting. Shutdown is
// graceful: in-flight requests drain (bounded by -shutdown-grace), the
// anonymiser-rotation goroutine is stopped via Close, and only then does
// the process exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hyrec"
	"hyrec/internal/persist"
	"hyrec/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyrec-server", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		frame    = fs.String("frame-addr", "", "framed binary transport listen address (empty = disabled); clients opt in with client.WithFramed")
		parts    = fs.Int("partitions", 1, "number of user partitions (engines); >1 serves a cluster")
		k        = fs.Int("k", 10, "neighborhood size")
		r        = fs.Int("r", 10, "recommendations per job")
		rotate   = fs.Duration("rotate", time.Hour, "anonymous-mapping rotation period (0 disables)")
		seed     = fs.Int64("seed", 1, "randomness seed")
		noCache  = fs.Bool("no-profile-cache", false, "disable the serialized-profile cache")
		noAnon   = fs.Bool("no-anonymizer", false, "send real identifiers (debugging only)")
		maxItems = fs.Int("max-profile-items", 0, "truncate candidate profiles to this many items (0 = unlimited)")
		recLRU   = fs.Int("rec-cache-users", 0, "users whose last recommendations are retained (0 = default 4096)")
		snapPath = fs.String("snapshot", "", "snapshot file for durable state (empty = stateless)")
		snapIvl  = fs.Duration("snapshot-interval", 5*time.Minute, "periodic snapshot period (with -snapshot)")
		grace    = fs.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on shutdown")
		leaseTTL = fs.Duration("lease-ttl", 0, "job lease duration; > 0 enables the async scheduler (leases, straggler re-issue)")
		leaseTry = fs.Int("lease-retries", 0, "lease re-issues before server-side fallback (0 = default, negative = none)")
		fallback = fs.Int("fallback-workers", 0, "server-side fallback worker pool size; > 0 also enables the scheduler")
		maxRate  = fs.Int("max-inflight-rating", 0, "admission bound on concurrent rating-ingest requests; excess answers 429 overloaded (0 = unlimited)")
		maxWork  = fs.Int("max-inflight-worker", 0, "admission bound on concurrent worker job traffic — parked long-polls, results, acks (0 = unlimited)")
		maxRead  = fs.Int("max-inflight-read", 0, "admission bound on concurrent rec/neighbor reads and user job fetches (0 = unlimited)")
		debug    = fs.String("debug-addr", "", "separate listen address serving net/http/pprof under /debug/pprof/ (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := hyrec.DefaultConfig()
	cfg.K = *k
	cfg.R = *r
	cfg.Seed = *seed
	cfg.DisableProfileCache = *noCache
	cfg.DisableAnonymizer = *noAnon
	cfg.MaxProfileItems = *maxItems
	cfg.RecCacheUsers = *recLRU
	cfg.LeaseTTL = *leaseTTL
	cfg.LeaseRetries = *leaseTry
	cfg.FallbackWorkers = *fallback
	cfg.MaxInflightRating = *maxRate
	cfg.MaxInflightWorker = *maxWork
	cfg.MaxInflightRead = *maxRead

	if *parts < 1 {
		return fmt.Errorf("-partitions must be >= 1, got %d", *parts)
	}

	// Both deployment shapes are a hyrec.Service; everything below this
	// switch is shape-agnostic.
	var svc hyrec.Backend
	var saver *persist.Saver
	switch {
	case *parts > 1:
		cl := hyrec.NewCluster(cfg, *parts)
		if *snapPath != "" {
			// One persist frame per partition (state.snap.p0 … .pN-1),
			// each renamed into place atomically and stamped with the
			// topology it was saved under. Frames from any historical
			// partition count (including a legacy single-engine frame at
			// the bare path) load by replay — every user routes through
			// the live ring to her current owner.
			switch snaps, err := persist.LoadClusterAny(*snapPath); {
			case err == nil:
				if err := persist.RestoreCluster(cl, snaps); err != nil {
					return fmt.Errorf("restore cluster snapshot: %w", err)
				}
				if len(snaps) != *parts {
					fmt.Printf("restored %d users from a %d-partition snapshot into %d partitions (migration replay) from %s.p*\n",
						cl.Len(), len(snaps), *parts, *snapPath)
				} else {
					fmt.Printf("restored %d users across %d partitions from %s.p*\n", cl.Len(), *parts, *snapPath)
				}
			case errors.Is(err, os.ErrNotExist):
				// No partition frames — a legacy single-engine frame at
				// the bare path restores via the same replay.
				// A file that exists but fails to load (corrupt,
				// truncated, wrong version) refuses to boot rather than
				// silently serving an empty dataset next to saved state.
				switch snap, serr := persist.Load(*snapPath); {
				case serr == nil:
					if err := persist.RestoreCluster(cl, []*persist.Snapshot{snap}); err != nil {
						return fmt.Errorf("restore single-engine snapshot into cluster: %w", err)
					}
					fmt.Printf("restored %d users from single-engine snapshot %s into %d partitions (migration replay)\n",
						cl.Len(), *snapPath, *parts)
				case errors.Is(serr, os.ErrNotExist):
					fmt.Printf("no cluster snapshot at %s.p*; starting fresh\n", *snapPath)
				default:
					return fmt.Errorf("load legacy snapshot %s: %w", *snapPath, serr)
				}
			default:
				return fmt.Errorf("load cluster snapshot: %w", err)
			}
			saver = persist.NewClusterSaver(cl, *snapPath, *snapIvl, func(err error) {
				log.Printf("cluster snapshot save failed: %v", err)
			})
			saver.Start()
		}
		svc = cl
	default:
		engine := hyrec.NewEngine(cfg)
		if *snapPath != "" {
			switch snap, err := persist.Load(*snapPath); {
			case err == nil:
				if snap.Partitions > 1 {
					return fmt.Errorf("snapshot %s holds partition %d of a %d-partition deployment; restart with -partitions %d", *snapPath, snap.Partition, snap.Partitions, snap.Partitions)
				}
				if err := persist.Restore(engine, snap); err != nil {
					return fmt.Errorf("restore snapshot: %w", err)
				}
				fmt.Printf("restored %d users from %s\n", engine.Profiles().Len(), *snapPath)
			case errors.Is(err, os.ErrNotExist):
				// Partition frames next to the bare path mean this
				// deployment used to run partitioned: refuse rather than
				// silently ignoring all saved state.
				if _, statErr := os.Stat(persist.PartitionPath(*snapPath, 0)); statErr == nil {
					return fmt.Errorf("found cluster snapshot frames at %s.p*; restart with the matching -partitions value (or move them aside to start fresh)", *snapPath)
				}
				fmt.Printf("no snapshot at %s; starting fresh\n", *snapPath)
			default:
				return fmt.Errorf("load snapshot: %w", err)
			}
			saver = persist.NewSaver(engine, *snapPath, *snapIvl, func(err error) {
				log.Printf("snapshot save failed: %v", err)
			})
			saver.Start()
		}
		svc = engine
	}

	if *debug != "" {
		dsrv, err := telemetry.ServeDebug(*debug)
		if err != nil {
			return err
		}
		defer dsrv.Close()
	}

	srv := hyrec.NewServiceServer(svc, *rotate)
	srv.Start()

	fmt.Printf("hyrec-server listening on %s (partitions=%d k=%d r=%d rotate=%s sched=%v fallback=%d frame=%q)\n",
		*addr, *parts, *k, *r, *rotate, cfg.SchedulerEnabled(), *fallback, *frame)
	defer svc.Close()
	var final func() error
	if saver != nil {
		final = saver.Close
	}
	return srv.ServeUntilSignal(*addr, *frame, *grace, final)
}
