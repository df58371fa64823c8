package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"hyrec/client"
	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/loadgen"
	"hyrec/internal/node"
	"hyrec/internal/server"
	"hyrec/internal/stats"
	"hyrec/internal/topk"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// The named workload scenarios. Each is deterministic over a seeded
// population: operation i of worker w always touches the same user and
// item, so two runs of the same build measure the same request stream.

// benchUID spreads (worker, i) over the population with the same
// multiplicative-hash idiom the tables use for shard spreading.
func benchUID(worker, i, users int) core.UserID {
	return core.UserID(uint32(worker*1_000_003+i)*2654435761%uint32(users) + 1)
}

func benchItem(i, items int) core.ItemID {
	return core.ItemID(uint32(i*40503) % uint32(items))
}

// widgetPool shares deterministic widget kernels across workers without
// per-operation construction.
var widgetPool = sync.Pool{New: func() any { return widget.New() }}

// roundTrip runs one full personalization cycle: assemble u's job, run
// the browser-side kernel, fold the result back. A stale anonymiser
// epoch mid-cycle is the protocol working, not a workload failure.
func roundTrip(ctx context.Context, svc server.Service, u core.UserID) error {
	job, err := svc.Job(ctx, u)
	if err != nil {
		return err
	}
	w := widgetPool.Get().(*widget.Widget)
	res, _ := w.Execute(job)
	widgetPool.Put(w)
	if _, err := svc.ApplyResult(ctx, res); err != nil && !errors.Is(err, server.ErrStaleEpoch) {
		return err
	}
	return nil
}

// servePayload exercises the serving-path hot loop: assemble and
// serialize u's job exactly as the HTTP layer would — the pooled
// zero-allocation append path.
func servePayload(svc server.Service, u core.UserID) error {
	if pa, ok := svc.(server.PayloadAppender); ok {
		bufs := wire.GetPayloadBufs()
		jsonBody, gzBody, err := pa.AppendJobPayload(context.Background(), u, bufs.JSON, bufs.Gz)
		if err == nil {
			bufs.JSON, bufs.Gz = jsonBody, gzBody
		}
		wire.PutPayloadBufs(bufs)
		return err
	}
	if p, ok := svc.(server.Payloader); ok {
		_, _, err := p.JobPayload(u)
		return err
	}
	return errors.New("bench: service serves no payloads")
}

// seedPopulation rates every user into existence (batched ingest) and
// runs one personalization cycle per user so the KNN graph, the
// serialized-profile cache and the staleness queues are warm — the
// steady-state condition the capacity claim is about.
func seedPopulation(ctx context.Context, svc server.Service, users, items, ratingsPer int) error {
	batch := make([]core.Rating, 0, 1024)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := svc.RateBatch(ctx, batch)
		batch = batch[:0]
		return err
	}
	for u := 1; u <= users; u++ {
		for j := 0; j < ratingsPer; j++ {
			batch = append(batch, core.Rating{
				User:  core.UserID(u),
				Item:  benchItem(u*ratingsPer+j, items),
				Liked: (u+j)%3 != 0,
			})
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for u := 1; u <= users; u++ {
		if err := roundTrip(ctx, svc, core.UserID(u)); err != nil {
			return err
		}
	}
	return nil
}

// scenarioSet builds the three canonical workloads over a population.
func scenarioSet(users int) map[string]Scenario {
	const items = 2000
	const ratingsPer = 6
	setup := func(ctx context.Context, svc server.Service) error {
		return seedPopulation(ctx, svc, users, items, ratingsPer)
	}
	return map[string]Scenario{
		// rate-heavy: the ingest path — profile updates and staleness
		// marking, no personalization serving.
		"rate-heavy": {
			Name:        "rate-heavy",
			Description: "pure rating ingest (Service.Rate)",
			Setup:       setup,
			Op: func(ctx context.Context, svc server.Service, worker, i int) error {
				u := benchUID(worker, i, users)
				return svc.Rate(ctx, u, benchItem(i, items), i%3 != 0)
			},
		},
		// job-worker-heavy: the serving path the zero-allocation work
		// targets — every op serializes a personalization job; every 8th
		// op is a full widget round trip folding a result back, the
		// worker side of the async scheduler's load shape.
		"job-worker-heavy": {
			Name:        "job-worker-heavy",
			Description: "job payload serving + widget result fold-in (1:8)",
			Setup:       setup,
			Op: func(ctx context.Context, svc server.Service, worker, i int) error {
				u := benchUID(worker, i, users)
				if i%8 == 7 {
					return roundTrip(ctx, svc, u)
				}
				return servePayload(svc, u)
			},
		},
		// mixed-churn: ingest, serving, fold-ins, reads and a trickle of
		// brand-new users arriving mid-run — the everything-at-once shape
		// a real deployment sees, exercising the slot table's lock-free
		// reads under concurrent writes and registrations.
		"mixed-churn": {
			Name:        "mixed-churn",
			Description: "rates + jobs + results + reads + new-user arrivals",
			Setup:       setup,
			Op: func(ctx context.Context, svc server.Service, worker, i int) error {
				u := benchUID(worker, i, users)
				switch i % 10 {
				case 0, 1, 2, 3:
					return svc.Rate(ctx, u, benchItem(i, items), i%2 == 0)
				case 4, 5, 6:
					return servePayload(svc, u)
				case 7:
					return roundTrip(ctx, svc, u)
				case 8:
					_, err := svc.Neighbors(ctx, u)
					return err
				default:
					// A new user arrives: rate once, get a first job.
					fresh := core.UserID(users + worker*1_000_003%911 + i)
					if err := svc.Rate(ctx, fresh, benchItem(i, items), true); err != nil {
						return err
					}
					return servePayload(svc, fresh)
				}
			},
		},
	}
}

// wireScenarios builds the typed-client workloads (reusing the loadgen
// op vocabulary): the service under test is a client.Client speaking the
// /v1 protocol to a real HTTP server over localhost.
func wireScenarios(users int) map[string]Scenario {
	const items = 2000
	uids := loadgen.UIDRange(users)
	setup := func(ctx context.Context, svc server.Service) error {
		// Seed through the wire as a deployment would: batched ratings,
		// then one job fetch per user to warm server caches.
		c, ok := svc.(*client.Client)
		if !ok {
			return fmt.Errorf("bench: wire scenario needs a *client.Client, got %T", svc)
		}
		batchOp := loadgen.RateBatchOp(uids, items, 32)
		for i := 0; i*32 < users*4; i++ {
			if err := batchOp(ctx, c, i); err != nil {
				return err
			}
		}
		jobOp := loadgen.JobOp(uids)
		for i := 0; i < users; i++ {
			if err := jobOp(ctx, c, i); err != nil {
				return err
			}
		}
		return nil
	}
	fromLoadgen := func(op loadgen.Op) Op {
		return func(ctx context.Context, svc server.Service, worker, i int) error {
			return op(ctx, svc.(*client.Client), worker*1_000_003+i)
		}
	}
	return map[string]Scenario{
		"rate-batch-wire": {
			Name:        "rate-batch-wire",
			Description: "batched rating ingest through the typed client (POST /v1/rate)",
			Setup:       setup,
			Op:          fromLoadgen(loadgen.RateBatchOp(uids, items, 32)),
		},
		"job-wire": {
			Name:        "job-wire",
			Description: "gzip-negotiated job fetches through the typed client (GET /v1/job)",
			Setup:       setup,
			Op:          fromLoadgen(loadgen.JobOp(uids)),
		},
	}
}

// framedWireScenarios builds the framed-transport twins of the wire
// scenarios: the same typed client and the same deterministic op
// stream, but the hot paths ride one persistent multiplexed binary
// connection (client.WithFramed) instead of per-request HTTP. The job
// scenario fetches the raw payload bytes (client.JobRaw — the exact
// JSON the HTTP path serves), so the row prices the transport itself:
// framing versus connection setup, headers and chunked encoding.
func framedWireScenarios(users int) map[string]Scenario {
	base := wireScenarios(users)
	uids := loadgen.UIDRange(users)
	rb := base["rate-batch-wire"]
	rb.Name = "rate-batch-framed"
	rb.Description = "batched rating ingest over the persistent framed transport (TRateBatch)"
	jb := base["job-wire"]
	jb.Name = "job-framed"
	jb.Description = "raw job payload fetches over the persistent framed transport (TJobGet)"
	jb.Op = func(ctx context.Context, svc server.Service, worker, i int) error {
		c := svc.(*client.Client)
		n := worker*1_000_003 + i
		_, err := c.JobRaw(ctx, core.UserID(uids[n%len(uids)]))
		return err
	}
	return map[string]Scenario{"rate-batch-framed": rb, "job-framed": jb}
}

// NodeWire measures the multi-node distribution tax on the ingest path:
// the typed client rates through one node of a live two-node HTTP
// deployment, so roughly half of each batch is proxied to the owning
// peer (client → non-owner → owner), and every locally-applied batch is
// synchronously replicated to its partition's mirror before the ack
// returns — replication on, the durability the failover guarantee is
// priced at. Comparing rate-node-wire with rate-batch-wire reads off
// the proxy-plus-replication overhead directly.
func NodeWire(ctx context.Context, opt Options) (Result, error) {
	return nodeWire(ctx, opt, false)
}

// NodeWireFramed is NodeWire with the framed transport end to end:
// the driving client AND the node-to-node peer clients (proxy hop,
// replication ship) all ride persistent multiplexed binary
// connections. Comparing rate-node-framed with rate-node-wire reads
// off what framing buys the distribution tax.
func NodeWireFramed(ctx context.Context, opt Options) (Result, error) {
	return nodeWire(ctx, opt, true)
}

func nodeWire(ctx context.Context, opt Options, framed bool) (Result, error) {
	opt = opt.withDefaults()
	cfg := server.DefaultConfig()
	cfg.Seed = opt.Seed

	lns := make([]net.Listener, 2)
	frameLns := make([]net.Listener, 2)
	mems := make([]node.Member, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Result{}, fmt.Errorf("bench: node-wire listen: %w", err)
		}
		lns[i] = ln
		mems[i] = node.Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
		if framed {
			fln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return Result{}, fmt.Errorf("bench: node-wire frame listen: %w", err)
			}
			frameLns[i] = fln
			mems[i].FrameAddr = fln.Addr().String()
		}
	}
	nodes := make([]*node.Node, 2)
	hsrvs := make([]*server.HTTPServer, 2)
	srvs := make([]*http.Server, 2)
	for i := range nodes {
		nd, err := node.New(node.Config{
			Self:       mems[i],
			Members:    mems,
			Partitions: 8,
			Engine:     cfg,
			// Static two-node deployment under measurement: liveness
			// probing off, the synchronous RateBatch leg and the async
			// dirty tail carry all replication.
			ReplicateEvery:   50 * time.Millisecond,
			AntiEntropyEvery: -1,
			HeartbeatEvery:   -1,
		})
		if err != nil {
			return Result{}, fmt.Errorf("bench: node-wire node %s: %w", mems[i].ID, err)
		}
		nodes[i] = nd
		hsrvs[i] = server.NewServer(nd, 0)
		srvs[i] = &http.Server{Handler: hsrvs[i].Handler()}
		go srvs[i].Serve(lns[i])
		if framed {
			go hsrvs[i].ServeFrames(frameLns[i])
		}
		nd.Start()
	}
	defer func() {
		for i := range nodes {
			srvs[i].Close()
			hsrvs[i].Close()
			nodes[i].Close()
		}
	}()

	const items = 2000
	uids := loadgen.UIDRange(opt.Users)
	name, desc := "rate-node-wire", "batched rating ingest via a non-owner node (proxy hop + synchronous replication)"
	if framed {
		name = "rate-node-framed"
		desc = "batched rating ingest via a non-owner node with every hop framed (client, proxy, replication)"
	}
	sc := Scenario{
		Name:        name,
		Description: desc,
		Setup: func(ctx context.Context, svc server.Service) error {
			c := svc.(*client.Client)
			batchOp := loadgen.RateBatchOp(uids, items, 32)
			for i := 0; i*32 < opt.Users*4; i++ {
				if err := batchOp(ctx, c, i); err != nil {
					return err
				}
			}
			return nil
		},
		Op: func(ctx context.Context, svc server.Service, worker, i int) error {
			return loadgen.RateBatchOp(uids, items, 32)(ctx, svc.(*client.Client), worker*1_000_003+i)
		},
	}
	copts := []client.Option{client.WithTimeout(10 * time.Second)}
	if framed {
		copts = append(copts, client.WithFramed(mems[0].FrameAddr))
	}
	c := client.New(mems[0].Addr, copts...)
	defer c.Close()
	res, err := Run(ctx, c, sc, opt)
	if err != nil {
		return Result{}, err
	}
	res.Service, res.Mode = "node-2-wire", "wire"
	if framed {
		res.Service, res.Mode = "node-2-framed", "framed"
	}
	return res, nil
}

// Rebalance measures the elastic-topology coordinator: a 2-partition
// cluster seeded with the standard population alternates live
// Scale(4)/Scale(2) cycles for the measurement window while light
// rate/serve traffic keeps flowing, and the scenario records
// users-moved per second as its throughput, per-moved-user milliseconds
// as its latency samples, and allocations per moved user — the
// rebalance numbers that ride alongside the capacity matrix in
// BENCH_hotpath.json.
func Rebalance(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	const items = 2000
	cfg := server.DefaultConfig()
	cfg.Seed = opt.Seed
	cl := cluster.New(cfg, 2)
	defer cl.Close()
	if err := seedPopulation(ctx, cl, opt.Users, items, 6); err != nil {
		return Result{}, fmt.Errorf("bench: rebalance setup: %w", err)
	}

	// Light concurrent traffic: the coordinator must stream state while
	// the cluster keeps serving (the live-migration claim).
	trafficCtx, stopTraffic := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; trafficCtx.Err() == nil; i++ {
				u := benchUID(w, i, opt.Users)
				if i%2 == 0 {
					cl.Rate(trafficCtx, u, benchItem(i, items), true)
				} else {
					servePayload(cl, u)
				}
			}
		}(w)
	}

	var lats []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(opt.Window)
	target := 4
	movedBase := cl.Topology().UsersMovedTotal
	for first := true; first || time.Now().Before(deadline); first = false {
		before := cl.Topology().UsersMovedTotal
		t0 := time.Now()
		if err := cl.Scale(ctx, target); err != nil {
			stopTraffic()
			wg.Wait()
			return Result{}, fmt.Errorf("bench: rebalance scale(%d): %w", target, err)
		}
		cycle := time.Since(t0)
		n := cl.Topology().UsersMovedTotal - before
		if n > 0 {
			per := float64(cycle) / float64(time.Millisecond) / float64(n)
			for i := int64(0); i < n; i++ {
				lats = append(lats, per)
			}
		}
		target = 6 - target // alternate 4 ↔ 2
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	stopTraffic()
	wg.Wait()

	moved := cl.Topology().UsersMovedTotal - movedBase
	res := Result{
		Scenario: "rebalance",
		Service:  "cluster-2x4",
		Mode:     "inproc",
		Workers:  opt.Workers,
		Ops:      moved,
		Seconds:  elapsed.Seconds(),
	}
	if moved == 0 {
		return res, fmt.Errorf("bench: rebalance moved zero users")
	}
	res.ThroughputOpsPerSec = float64(moved) / elapsed.Seconds()
	res.P50Ms = stats.Percentile(lats, 50)
	res.P99Ms = stats.Percentile(lats, 99)
	// Allocation counters include the concurrent traffic — the honest
	// cost of a rebalance under load.
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(moved)
	res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(moved)
	return res, nil
}

// KNNKernel measures the raw similarity kernel: candidate scores per
// second through SelectKNNInto over the standard seeded population, with
// no server, wire or scheduler in the way. One op is one candidate
// scored; latency samples are per-selection milliseconds. This is the
// row that prices the blocked-bitmap kernel itself — the server rows
// above it measure how much of that speed survives the full stack.
func KNNKernel(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	const items = 2000
	const ratingsPer = 24 // denser than seedPopulation's 6, so profiles
	// clear the packed-form size gate and the row prices the blocked-
	// bitmap kernel rather than the small-profile merge fallback
	cands := 32 // candidate-set size per selection (≈ K + hood churn)

	// The same deterministic derivations seedPopulation uses, built
	// directly as profiles.
	n := opt.Users
	profiles := make([]core.Profile, n)
	for u := 1; u <= n; u++ {
		p := core.NewProfile(core.UserID(u))
		for j := 0; j < ratingsPer; j++ {
			p = p.WithRating(benchItem(u*ratingsPer+j, items), (u+j)%3 != 0)
		}
		profiles[u-1] = p
	}
	if n < 2 {
		return Result{}, fmt.Errorf("bench: knn-kernel needs at least 2 users, have %d", n)
	}
	if cands > n-1 {
		cands = n - 1
	}
	cfg := server.DefaultConfig()
	metric := core.Cosine{}
	col := topk.New(cfg.K)
	var hood []core.Neighbor

	// Warm every profile's packed form so the window measures the
	// steady-state kernel, not one-time pack construction.
	for i := range profiles {
		metric.Score(profiles[i], profiles[(i+1)%n])
	}

	const batch = 128 // selections per latency sample
	lats := make([]float64, 0, 1<<16)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(opt.Window)
	var selections int64
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			j := int(uint32((i*batch+b)*2654435761) % uint32(n))
			lo := j
			if lo+cands > n {
				lo = n - cands
			}
			hood = core.SelectKNNInto(profiles[j], profiles[lo:lo+cands], cfg.K, metric, col, hood)
		}
		if len(lats) < cap(lats) {
			lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond)/batch)
		}
		selections += batch
		if time.Now().After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	scores := selections * int64(cands)
	res := Result{
		Scenario:            "knn-kernel",
		Service:             "core",
		Mode:                "inproc",
		Workers:             opt.Workers,
		Ops:                 scores,
		Seconds:             elapsed.Seconds(),
		ThroughputOpsPerSec: float64(scores) / elapsed.Seconds(),
		P50Ms:               stats.Percentile(lats, 50),
		P99Ms:               stats.Percentile(lats, 99),
		AllocsPerOp:         float64(m1.Mallocs-m0.Mallocs) / float64(scores),
		BytesPerOp:          float64(m1.TotalAlloc-m0.TotalAlloc) / float64(scores),
	}
	return res, nil
}

// Capacity runs the full capacity matrix: the three canonical scenarios
// against a single engine, the serving scenario against a 4-partition
// cluster, the rebalance scenario against a live-scaling cluster, the
// WebSocket worker loop and the churny-fleet convergence scenario, and
// the wire scenarios through the typed client against a live HTTP
// server. The result is the report committed as BENCH_hotpath.json.
func Capacity(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	rep := NewReport(opt)
	inproc := scenarioSet(opt.Users)

	engineCfg := server.DefaultConfig()
	engineCfg.Seed = opt.Seed
	for _, name := range []string{"rate-heavy", "job-worker-heavy", "mixed-churn"} {
		eng := server.NewEngine(engineCfg)
		res, err := Run(ctx, eng, inproc[name], opt)
		eng.Close()
		if err != nil {
			return nil, err
		}
		res.Service, res.Mode = "engine", "inproc"
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// The raw similarity kernel: candidate scores per second through
	// SelectKNNInto, no server in the way — the ceiling the serving rows
	// are measured against.
	{
		res, err := KNNKernel(ctx, opt)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// The serving scenario again at 4 workers: parallel scaling of the
	// job hot path on one engine (the top-level report stays at
	// opt.Workers; this row carries its own worker count).
	{
		w4 := opt
		w4.Workers = 4
		// Floor the window (like fleet-churn): per-worker startup
		// allocations only amortize out of allocs/op over a real window.
		if w4.Window < time.Second {
			w4.Window = time.Second
		}
		eng := server.NewEngine(engineCfg)
		res, err := Run(ctx, eng, inproc["job-worker-heavy"], w4)
		eng.Close()
		if err != nil {
			return nil, err
		}
		res.Service, res.Mode = "engine-w4", "inproc"
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// The serving scenario on a 4-partition cluster: same workload, now
	// with cross-partition candidate exchange in every candidate set.
	cl := cluster.New(engineCfg, 4)
	res, err := Run(ctx, cl, inproc["job-worker-heavy"], opt)
	cl.Close()
	if err != nil {
		return nil, err
	}
	res.Service, res.Mode = "cluster-4", "inproc"
	rep.Scenarios = append(rep.Scenarios, res)

	// The rebalance scenario: live 2↔4 scale cycles under traffic,
	// measured in users-moved/sec.
	res, err = Rebalance(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, res)

	// The browser-true transport: the credit-push WebSocket worker loop
	// against a live server, measured in completed push→compute→result
	// cycles per second.
	res, err = JobWS(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, res)

	// The fleet-churn scenario: whole-fleet convergence cycles under
	// silent abandonment and a mass disconnect, measured in completed
	// jobs per second with per-cycle convergence latency.
	res, err = FleetChurn(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, res)

	// Wire mode: a real HTTP server on localhost, driven through the
	// typed client — the full network path of the paper's deployment.
	for _, name := range []string{"rate-batch-wire", "job-wire"} {
		eng := server.NewEngine(engineCfg)
		hs := server.NewServer(eng, 0)
		ts := httptest.NewServer(hs.Handler())
		c := client.New(ts.URL, client.WithTimeout(10*time.Second))
		res, err := Run(ctx, c, wireScenarios(opt.Users)[name], opt)
		c.Close()
		ts.Close()
		hs.Close()
		eng.Close()
		if err != nil {
			return nil, err
		}
		res.Service, res.Mode = "engine-wire", "wire"
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// Framed wire mode: the same ops through the same typed client, but
	// the hot paths ride one persistent multiplexed binary connection —
	// priced directly against the HTTP wire rows above.
	for _, name := range []string{"rate-batch-framed", "job-framed"} {
		eng := server.NewEngine(engineCfg)
		hs := server.NewServer(eng, 0)
		ts := httptest.NewServer(hs.Handler())
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: framed listen: %w", err)
		}
		go hs.ServeFrames(fln)
		c := client.New(ts.URL, client.WithTimeout(10*time.Second),
			client.WithFramed(fln.Addr().String()))
		res, err := Run(ctx, c, framedWireScenarios(opt.Users)[name], opt)
		c.Close()
		ts.Close()
		hs.Close()
		eng.Close()
		if err != nil {
			return nil, err
		}
		res.Service, res.Mode = "engine-framed", "framed"
		rep.Scenarios = append(rep.Scenarios, res)
	}

	// Multi-node wire mode: the same batched ingest through one node of
	// a two-node deployment, pricing the proxy hop and the synchronous
	// replica ship against rate-batch-wire above.
	res, err = NodeWire(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, res)

	// And the framed twin: every hop — client ingest, proxy, replication
	// ship — on persistent framed connections.
	res, err = NodeWireFramed(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.Scenarios = append(rep.Scenarios, res)

	// The adversarial row: rating ingest measured while an admission-
	// bounded server sheds a 10x read flood. Its shed_total > 0 is what
	// Compare uses to insist the gate keeps engaging.
	res, err = Overload(ctx, opt)
	if err != nil {
		return nil, err
	}
	res.Service, res.Mode = "engine-wire", "wire"
	rep.Scenarios = append(rep.Scenarios, res)
	return rep, nil
}
