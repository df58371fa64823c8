package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"hyrec/client"
	"hyrec/internal/core"
	"hyrec/internal/metrics"
	"hyrec/internal/stats"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// The process run: boot the children, set up, drive one closed-loop
// window from clients goroutines, read the servers' cost from /proc,
// check the outputs. Tracing is never on here.

const (
	opTimeout   = 10 * time.Second
	pushTimeout = 5 * time.Second // a pushed job that takes longer is a failure, not a hang
	// maxFailures aborts a window whose ops keep failing: the result is
	// already "not correct", there is nothing left to measure.
	maxFailures = 50
	// viewRatioFloor is the cycle workload's quality floor: view
	// similarity of the served KNN graph over the ideal graph's. On the
	// defining commit it is 0.64 right after warm-up and 0.66-0.69 after a
	// 15 s window, across seeds; the floor is the lowest of those minus
	// 0.05.
	viewRatioFloor = 0.59
	verifyUsers    = 200
	// setupsPerRun full set-ups are timed in a run; setup_s is their
	// median and the window runs on the last.
	setupsPerRun = 3
)

// A cheap set-up (a fraction of a second on the ingest workloads) is
// mostly process start and scheduling luck, so it is repeated further:
// until a second per required set-up has been spent, at most three
// times as many.
const (
	setupBudgetEach = time.Second
	setupMaxFactor  = 3
)

// runSpec is one process run's parameters.
type runSpec struct {
	w       workload
	seed    int64
	seconds float64
	clients int
	setups  int // full set-ups to time, at least; the window runs on the last
	// noTail lifts the rule that minTailSamples samples lie beyond p99:
	// the short process run behind a traced pass (and a smoke test's)
	// only needs the mean.
	noTail bool
}

// runResult is what one process run measured.
type runResult struct {
	endToEnd  map[string]float64
	attempted int
	failed    int
	errs      []string // failed correctness checks and first op errors
	notes     []string // informational lines, printed under the workload's name
	samples   int
	opMeanMS  float64
	clientCPU float64 // generator CPU µs per op
}

func (r *runResult) correct() bool { return len(r.errs) == 0 && r.failed == 0 }

// clientStats is one goroutine's view of the window.
type clientStats struct {
	latMS     []float64
	attempted int
	failed    int
	firstErr  error
}

func (cs *clientStats) fail(err error) {
	cs.failed++
	if cs.firstErr == nil {
		cs.firstErr = err
	}
}

// session is one booted deployment plus the generator's connections.
type session struct {
	spec runSpec
	in   *inputs
	d    *deployment
	cl   []*client.Client // one per client goroutine
	// next[c] is goroutine c's position in its stream: the ingest set-up
	// advances it through pass 0, and the window continues from there.
	next []int
	// profiles mirrors what the generator sent, per user (cycle only):
	// the reference for the "never recommend a rated item" and view
	// similarity checks. A user belongs to one goroutine, so no lock.
	profiles map[core.UserID]*core.Profile
}

func parallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// open boots the deployment and performs the timed set-up: child boot
// and readiness, seeding, warm-up.
func open(ctx context.Context, sup *supervisor, spec runSpec, in *inputs) (*session, time.Duration, error) {
	start := time.Now()
	boot := func() (*deployment, error) {
		switch {
		case spec.w.twoNode:
			return sup.bootNodes(ctx)
		case spec.w.kind == kindRefresh:
			return sup.bootServer(ctx, false, "-lease-ttl", "30s")
		default:
			return sup.bootServer(ctx, spec.w.kind == kindIngest)
		}
	}
	d, err := bootRetry(boot)
	if err != nil {
		return nil, 0, err
	}
	s := &session{spec: spec, in: in, d: d, next: make([]int, spec.clients)}
	for c := 0; c < spec.clients; c++ {
		opts := []client.Option{client.WithTimeout(opTimeout)}
		if spec.w.kind == kindIngest {
			opts = append(opts, client.WithFramed(d.frameAddr))
		}
		s.cl = append(s.cl, client.New(d.baseURL, opts...))
	}
	if err := s.setUp(ctx); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(start), nil
}

func (s *session) close() {
	for _, c := range s.cl {
		_ = c.Close() // nothing buffered: batching is off
	}
	s.d.stop()
}

func (s *session) setUp(ctx context.Context) error {
	n := s.spec.clients
	if s.spec.w.kind == kindIngest {
		// Pass 0 of the measured stream is the seeding.
		return parallel(n, func(c int) error {
			p := &s.in.parts[c]
			var buf []core.Rating
			for ; s.next[c] < p.setupOps(); s.next[c]++ {
				buf = p.batch(s.next[c], buf)
				if err := s.cl[c].RateBatch(ctx, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Seed: a trace rates each (user, item) pair once, so the batches can
	// land in any order.
	seed := s.in.seedRatings
	err := parallel(n, func(c int) error {
		for lo := c * seedBatch; lo < len(seed); lo += n * seedBatch {
			if err := s.cl[c].RateBatch(ctx, seed[lo:min(lo+seedBatch, len(seed))]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.spec.w.kind == kindCycle {
		byUser := make(map[core.UserID][]core.Rating, len(s.in.users))
		for _, r := range seed {
			byUser[r.User] = append(byUser[r.User], r)
		}
		s.profiles = make(map[core.UserID]*core.Profile, len(s.in.users))
		for _, u := range s.in.users {
			prof := core.ProfileFromRatings(u, byUser[u])
			s.profiles[u] = &prof
		}
	}
	// Warm-up: full personalization rounds, every user once per round.
	err = parallel(n, func(c int) error {
		w := widget.New()
		for round := 0; round < s.spec.w.warmRounds; round++ {
			for _, u := range s.in.parts[c].users {
				job, err := s.cl[c].Job(ctx, u)
				if err != nil {
					return err
				}
				res, _ := w.Execute(job)
				if _, err := s.cl[c].ApplyResult(ctx, res); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.spec.w.kind == kindRefresh {
		// Every user was just refreshed under their own lease, so the
		// scheduler must owe nothing when the window opens.
		return s.waitSchedIdle(ctx)
	}
	return nil
}

// stats fetches base/stats.
func fetchStats(ctx context.Context, base string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return m, nil
}

// waitSchedIdle polls /stats until no job is pending or leased. Results
// are folded in asynchronously to the socket write that carried them,
// so the last few may still be in flight when the window closes.
func (s *session) waitSchedIdle(ctx context.Context) error {
	deadline := time.Now().Add(pushTimeout)
	for {
		m, err := fetchStats(ctx, s.d.baseURL)
		if err != nil {
			return err
		}
		pending, _ := m["sched_pending"].(float64)
		leased, _ := m["sched_leased"].(float64)
		if _, ok := m["sched_leased"]; !ok {
			return errors.New("/stats has no sched_leased: the scheduler is not running")
		}
		if pending == 0 && leased == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scheduler still owes work: %v pending, %v leased", pending, leased)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// selfCPU is the generator's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only on a bad argument; the figure is a per-layer hint
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window runs the measured closed loop for spec.seconds and fills res.
func (s *session) window(ctx context.Context, res *runResult) error {
	n := s.spec.clients
	perClient := make([]clientStats, n)
	var socks []*ws.Conn
	if s.spec.w.kind == kindRefresh {
		for c := 0; c < n; c++ {
			conn, err := ws.Dial(ctx, s.d.baseURL+wire.WSWorkerPath, 0)
			if err != nil {
				return fmt.Errorf("dial worker socket: %w", err)
			}
			defer conn.Close()
			socks = append(socks, conn)
		}
	}
	before, err := sampleProcs(s.d.pids())
	if err != nil {
		return err
	}
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(s.spec.seconds * float64(time.Second)))
	ends := make([]time.Time, n)
	_ = parallel(n, func(c int) error {
		cs := &perClient[c]
		switch s.spec.w.kind {
		case kindCycle:
			s.cycleLoop(ctx, c, deadline, cs)
		case kindIngest:
			s.ingestLoop(ctx, c, deadline, cs)
		case kindRefresh:
			s.refreshLoop(ctx, c, socks[c], deadline, cs)
		}
		ends[c] = time.Now()
		return nil
	})
	wall := 0.0
	for _, e := range ends {
		wall = max(wall, e.Sub(start).Seconds())
	}
	cpu1 := selfCPU()
	if err := s.d.checkAlive(); err != nil {
		return err // its cost can no longer be read; there is nothing to report
	}
	after, err := sampleProcs(s.d.pids())
	if err != nil {
		return err
	}

	var lat []float64
	for c := range perClient {
		cs := &perClient[c]
		lat = append(lat, cs.latMS...)
		res.attempted += cs.attempted
		res.failed += cs.failed
		if cs.firstErr != nil {
			res.errs = append(res.errs, fmt.Sprintf("client %d: %d of %d ops failed, first: %v", c, cs.failed, cs.attempted, cs.firstErr))
		}
	}
	if len(lat) == 0 {
		return errors.New("window completed no op")
	}
	p99, err := tailPercentile(lat, 99)
	if s.spec.noTail {
		p99, err = stats.Percentile(lat, 99), nil
	}
	if err != nil {
		return fmt.Errorf("window too short, raise --seconds: %w", err)
	}
	res.endToEnd["op_p99_ms"] = p99
	ops := float64(len(lat))
	res.samples = len(lat)
	res.opMeanMS = stats.Mean(lat)
	res.clientCPU = float64((cpu1 - cpu0).Microseconds()) / ops
	res.endToEnd["ops_per_s"] = ops / wall
	res.endToEnd["op_p50_ms"] = stats.Percentile(lat, 50)
	res.endToEnd["server_cpu_us_per_op"] = float64(after.cpuUS-before.cpuUS) / ops
	res.endToEnd["server_io_bytes_per_op"] = float64(after.ioBytes-before.ioBytes) / ops
	res.endToEnd["server_rss_mb"] = float64(after.hwmKB) / 1024

	if err := s.verify(ctx, res); err != nil {
		res.errs = append(res.errs, err.Error())
	}
	return nil
}

// cycleLoop is the paper's Figure-1 loop: each held-out rating is
// recorded, then the user's job is fetched, computed and folded back.
func (s *session) cycleLoop(ctx context.Context, c int, deadline time.Time, cs *clientStats) {
	p, cl, w := &s.in.parts[c], s.cl[c], widget.New()
	for i := 0; cs.failed < maxFailures && time.Now().Before(deadline); i++ {
		r := p.rating(i)
		cs.attempted++
		t0 := time.Now()
		recs, err := cycleOp(ctx, cl, w, r)
		if err != nil {
			cs.fail(err)
			continue
		}
		cs.latMS = append(cs.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
		prof := s.profiles[r.User].WithRating(r.Item, r.Liked)
		*s.profiles[r.User] = prof
		if len(recs) > recR {
			cs.fail(fmt.Errorf("user %d got %d recommendations, more than r=%d", r.User, len(recs), recR))
		}
		for _, it := range recs {
			if prof.Contains(it) {
				cs.fail(fmt.Errorf("user %d was recommended item %d, which is already in their profile", r.User, it))
				break
			}
		}
	}
}

func cycleOp(ctx context.Context, cl *client.Client, w *widget.Widget, r core.Rating) ([]core.ItemID, error) {
	if err := cl.Rate(ctx, r.User, r.Item, r.Liked); err != nil {
		return nil, err
	}
	job, err := cl.Job(ctx, r.User)
	if err != nil {
		return nil, err
	}
	res, _ := w.Execute(job)
	return cl.ApplyResult(ctx, res)
}

// ingestLoop is pure writes: one RateBatch per op.
func (s *session) ingestLoop(ctx context.Context, c int, deadline time.Time, cs *clientStats) {
	p, cl := &s.in.parts[c], s.cl[c]
	var buf []core.Rating
	for i := s.next[c]; cs.failed < maxFailures && time.Now().Before(deadline); i++ {
		buf = p.batch(i, buf)
		cs.attempted++
		t0 := time.Now()
		if err := cl.RateBatch(ctx, buf); err != nil {
			cs.fail(err)
			continue
		}
		cs.latMS = append(cs.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

// refreshLoop alternates, never concurrently, between staling
// refreshGroup users over HTTP and serving refreshGroup pushed jobs on
// the worker socket, making the calls client.WSWorker.ServeConn makes.
// Which users' jobs arrive is the scheduler's choice (stalest first,
// across all sockets); only the count is the generator's.
func (s *session) refreshLoop(ctx context.Context, c int, conn *ws.Conn, deadline time.Time, cs *clientStats) {
	p, cl, w := &s.in.parts[c], s.cl[c], widget.New()
	batch := make([]core.Rating, 0, refreshGroup)
	for round := 0; cs.failed < maxFailures && time.Now().Before(deadline); round++ {
		batch = batch[:0]
		for j := 0; j < refreshGroup; j++ {
			batch = append(batch, p.toggle(round*refreshGroup+j))
		}
		if err := cl.RateBatch(ctx, batch); err != nil {
			cs.attempted++
			cs.fail(err)
			continue
		}
		for j := 0; j < refreshGroup; j++ {
			cs.attempted++
			t0 := time.Now()
			if err := refreshOp(conn, w); err != nil {
				cs.fail(err)
				if errors.Is(err, errSocket) {
					// The stream position on a failed socket is unknown;
					// everything after it would be noise.
					return
				}
				continue
			}
			cs.latMS = append(cs.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
}

var errSocket = errors.New("worker socket failed")

// refreshOp grants one credit, takes the pushed job, computes it and
// writes the result back.
func refreshOp(conn *ws.Conn, w *widget.Widget) error {
	credit, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{Want: 1})
	if err != nil {
		return err
	}
	if err := conn.WriteMessage(ws.OpText, credit); err != nil {
		return fmt.Errorf("%w: grant credit: %v", errSocket, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(pushTimeout)); err != nil {
		return fmt.Errorf("%w: %v", errSocket, err)
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("%w: no job pushed within %s: %v", errSocket, pushTimeout, err)
	}
	if wire.IsWSError(frame) {
		return fmt.Errorf("server pushed an error envelope: %s", frame)
	}
	job, err := wire.DecodeJob(frame)
	if err != nil {
		return err
	}
	res, _ := w.Execute(job)
	out, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{Result: res})
	if err != nil {
		return err
	}
	if err := conn.WriteMessage(ws.OpText, out); err != nil {
		return fmt.Errorf("%w: write result: %v", errSocket, err)
	}
	return nil
}

// verify checks the system's outputs after the window.
func (s *session) verify(ctx context.Context, res *runResult) error {
	switch s.spec.w.kind {
	case kindCycle:
		return s.verifyView(ctx, res)
	case kindIngest:
		if err := s.verifyFramed(ctx); err != nil {
			return err
		}
		return s.verifyProfiles(ctx)
	default:
		if err := s.waitSchedIdle(ctx); err != nil {
			return err
		}
		return s.verifyProfiles(ctx)
	}
}

// verifyView compares the KNN graph the server ended up with against
// the ideal graph over the profiles the generator itself sent.
func (s *session) verifyView(ctx context.Context, res *runResult) error {
	src := make(metrics.MapSource, len(s.profiles))
	for u, p := range s.profiles {
		src[u] = *p
	}
	hoods := make(map[core.UserID][]core.UserID, len(s.in.users))
	for _, u := range s.in.users {
		ns, err := s.cl[0].Neighbors(ctx, u)
		if err != nil {
			return fmt.Errorf("neighbors of user %d: %w", u, err)
		}
		hoods[u] = ns
	}
	view := metrics.ViewSimilarity(src, func(u core.UserID) []core.UserID { return hoods[u] }, core.Cosine{})
	ideal := metrics.IdealViewSimilarity(src, knnK, core.Cosine{})
	ratio := view / ideal
	res.notes = append(res.notes, fmt.Sprintf("view_ratio %.4f (view similarity %.4f over ideal %.4f, floor %.2f)", ratio, view, ideal, viewRatioFloor))
	if !(ratio >= viewRatioFloor) {
		return fmt.Errorf("view similarity is %.3f of the ideal, below the floor %.2f", ratio, viewRatioFloor)
	}
	return nil
}

// verifyFramed makes sure the ingest traffic really rode the framed
// plane: the client falls back to JSON silently when the framed dial
// fails, which would measure a different transport.
func (s *session) verifyFramed(ctx context.Context) error {
	m, err := fetchStats(ctx, s.d.baseURL)
	if err != nil {
		return err
	}
	if b, _ := m["frame_bytes_total"].(float64); b == 0 {
		return errors.New("frame_bytes_total is 0: the framed transport carried nothing")
	}
	return nil
}

// verifyProfiles reads back a sample of users' jobs (through the second
// node when there is one) and compares the own-profile size with the
// distinct items the generator sent.
func (s *session) verifyProfiles(ctx context.Context) error {
	want := s.in.traceItems
	cl := client.New(s.d.verifyURL, client.WithTimeout(opTimeout))
	defer cl.Close()
	step := max(1, len(s.in.users)/verifyUsers)
	for i := 0; i < len(s.in.users); i += step {
		u := s.in.users[i]
		job, err := cl.Job(ctx, u)
		if err != nil {
			return fmt.Errorf("read back user %d: %w", u, err)
		}
		if got := len(job.Profile.Liked) + len(job.Profile.Disliked); got != want[u] {
			return fmt.Errorf("user %d: server holds %d items, generator sent %d distinct", u, got, want[u])
		}
	}
	return nil
}

// runProcess performs spec.setups timed set-ups and one measured window.
func runProcess(ctx context.Context, sup *supervisor, spec runSpec, in *inputs) (*runResult, error) {
	res := &runResult{endToEnd: make(map[string]float64)}
	var setupS []float64
	var spent time.Duration
	for {
		s, took, err := open(ctx, sup, spec, in)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		spent += took
		n := len(setupS)
		if n < spec.setups || (spent < time.Duration(spec.setups)*setupBudgetEach && n < setupMaxFactor*spec.setups) {
			s.close()
			continue
		}
		err = s.window(ctx, res)
		s.close()
		if err != nil {
			return nil, err
		}
		break
	}
	res.endToEnd["setup_s"] = stats.Percentile(setupS, 50)
	return res, nil
}
