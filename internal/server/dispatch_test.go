package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// leaseMeta matches the three lease fields — the only bytes two fetches
// of one user's job may differ in.
var leaseMeta = regexp.MustCompile(`,"lease":\d+,"deadline_ms":\d+,"attempt":\d+`)

// treeEngine builds a scheduler-enabled engine whose KNN graph is a
// K-ary tree (u's neighbours are uK+1 … uK+K), so user 1's candidate
// set holds K one-hop and K² two-hop users, all distinct, plus the
// random draws: ~15 candidates at K=3, ~120 at K=10. Every user carries
// perUser ratings. Nothing is stale on return.
func treeEngine(t testing.TB, k, perUser int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K, cfg.R = k, k
	cfg.LeaseTTL = time.Hour
	e := NewEngine(cfg)
	t.Cleanup(func() { e.Close() })
	users := 1 + k + k*k + k*k*k
	for u := 1; u <= users; u++ {
		for j := 0; j < perUser; j++ {
			if err := e.Rate(tctx, core.UserID(u), core.ItemID((u*7+j*13)%997), j%4 != 0); err != nil {
				t.Fatal(err)
			}
		}
		hood := make([]core.UserID, 0, k)
		for d := 1; d <= k; d++ {
			hood = append(hood, core.UserID((u*k+d-1)%users+1))
		}
		e.KNN().Put(core.UserID(u), hood)
	}
	for u := 1; u <= users; u++ {
		e.Scheduler().Refreshed(core.UserID(u))
	}
	return e
}

// TestFivePathsOneAssembler fetches one user's job over all five
// job-fetch paths of one engine. They must serve identical JSON modulo
// the lease fields, the gzip forms must inflate to that JSON and be the
// spliced form (cached deflate fragments, verbatim), and the struct API
// must be the decode of the same bytes.
func TestFivePathsOneAssembler(t *testing.T) {
	e := treeEngine(t, 3, 40)
	// The random draws differ from fetch to fetch; pin the candidate set.
	const u = core.UserID(1)
	cands := []core.UserID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	e.SetSampler(fixedOrderSampler{users: cands})
	srv := NewServer(e, 0)
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	cn := dialFrame(t, ln.Addr().String(), "")
	ctx, cancel := context.WithTimeout(tctx, 10*time.Second)
	defer cancel()
	sock, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	httpGet := func(url string, gz bool) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "identity")
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := http.DefaultTransport.RoundTrip(req) // no transparent inflate
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
		}
		if gz != (resp.Header.Get("Content-Encoding") == "gzip") {
			t.Fatalf("GET %s: Content-Encoding %q, asked gzip=%v", url, resp.Header.Get("Content-Encoding"), gz)
		}
		return body
	}
	// A worker path dispatches whoever is stalest: make that u, alone,
	// retiring the lease the previous fetch left outstanding.
	stale := func() {
		e.Scheduler().Refreshed(u)
		e.Scheduler().MarkStale(u)
	}
	paths := []struct {
		name   string
		gz     bool
		worker bool
		fetch  func() []byte
	}{
		{"http pull", false, false, func() []byte { return httpGet(ts.URL+"/v1/job?uid=1", false) }},
		{"http pull gzip", true, false, func() []byte { return httpGet(ts.URL+"/v1/job?uid=1", true) }},
		{"framed get", false, false, func() []byte {
			return frameCall(t, cn, frame.TJobGet, 5, frame.AppendUID(nil, uint32(u))).Payload
		}},
		{"long-poll", false, true, func() []byte { return httpGet(ts.URL+"/v1/job?worker=1&wait=5s", false) }},
		{"long-poll gzip", true, true, func() []byte { return httpGet(ts.URL+"/v1/job?worker=1&wait=5s", true) }},
		{"framed pull", false, true, func() []byte {
			return frameCall(t, cn, frame.TJobPull, 7, frame.AppendUint(nil, 5000)).Payload
		}},
		{"ws push", false, true, func() []byte {
			if err := sock.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
				t.Fatal(err)
			}
			_, msg, err := sock.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			return msg
		}},
	}

	view := e.anonView()
	var want []byte
	for _, p := range paths {
		if p.worker {
			stale()
		}
		body := p.fetch()
		raw := body
		if p.gz {
			if raw, err = wire.Decompress(body); err != nil {
				t.Fatalf("%s: inflate: %v", p.name, err)
			}
			// Spliced, not re-deflated: every candidate's cached deflate
			// fragment sits in the stream as is.
			for _, c := range cands {
				_, frag, err := e.cache.FragmentGz(e.profiles.Get(c), view, e.cfg.GzipLevel)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(body, frag) {
					t.Fatalf("%s: gzip payload does not carry user %d's cached fragment: not the spliced form", p.name, c)
				}
			}
		}
		if !leaseMeta.Match(raw) {
			t.Fatalf("%s: no lease metadata in %s", p.name, raw[:min(len(raw), 120)])
		}
		got := leaseMeta.ReplaceAll(raw, nil)
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from %s:\n got %s\nwant %s", p.name, paths[0].name, got, want)
		}
	}

	// The struct API is the decode of those bytes.
	decoded, err := wire.DecodeJob(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Candidates) != len(cands) {
		t.Fatalf("payload carries %d candidates, want %d", len(decoded.Candidates), len(cands))
	}
	strip := func(j *wire.Job) *wire.Job {
		if j == nil || j.Lease == 0 || j.LeaseDeadlineMS == 0 || j.Attempt == 0 {
			t.Fatalf("struct job without lease metadata: %+v", j)
		}
		j.Lease, j.LeaseDeadlineMS, j.Attempt = 0, 0, 0
		return j
	}
	job, err := e.Job(tctx, u)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(job), decoded) {
		t.Fatalf("Job differs from the decoded payload:\n got %+v\nwant %+v", job, decoded)
	}
	stale()
	if job, err = e.NextJob(tctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(job), decoded) {
		t.Fatalf("NextJob differs from the decoded payload:\n got %+v\nwant %+v", job, decoded)
	}
	stale()
	if job, err = e.TryNextJob(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip(job), decoded) {
		t.Fatalf("TryNextJob differs from the decoded payload:\n got %+v\nwant %+v", job, decoded)
	}
}

// TestWorkerDispatchAllocs is the deterministic guard on the worker
// dispatch path: once pools and the fragment cache are warm, leasing,
// assembling and handing off one job — everything short of the socket
// write — stays within 8 allocations whatever the candidate count (the
// struct-then-encode path it replaces needed one per candidate and more).
func TestWorkerDispatchAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops items at random under the race detector, so
		// allocation counts say nothing about the build.
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, k := range []int{3, 10} {
		e := treeEngine(t, k, 12)
		srv := NewServer(e, 0)
		// Warm the fragment cache for every user the random draws can pick
		// (the benchmark's warm-up does the same by serving everyone once).
		for _, u := range e.profiles.Users() {
			if _, _, err := e.cache.FragmentGz(e.profiles.Get(u), e.anonView(), e.cfg.GzipLevel); err != nil {
				t.Fatal(err)
			}
		}
		handOff := func(payload []byte) error {
			if len(payload) == 0 {
				t.Error("empty payload handed off")
			}
			return nil
		}
		for _, gz := range []bool{false, true} {
			cycle := func() {
				e.Scheduler().MarkStale(1)
				leased, err := srv.dispatchJob(tctx, e, gz, handOff)
				if !leased || err != nil {
					t.Fatalf("dispatch: leased=%v err=%v", leased, err)
				}
				e.Scheduler().Refreshed(1) // the worker's result, folded in
			}
			cycle()
			e.ResetCandidateStats()
			allocs := testing.AllocsPerRun(200, cycle)
			candidates, _ := e.CandidateSetStats()
			t.Logf("K=%d gzip=%v: %.0f candidates, %.1f allocs per dispatched job", k, gz, candidates, allocs)
			if want := float64(k + k*k); candidates < want {
				t.Fatalf("K=%d: only %.0f candidates, want at least %.0f", k, candidates, want)
			}
			if allocs > 8 {
				t.Fatalf("K=%d gzip=%v: %.1f allocs per dispatched job, want <= 8", k, gz, allocs)
			}
		}
		srv.Close()
	}
}

// failingWriter is a ResponseWriter whose connection is gone.
type failingWriter struct{ header http.Header }

func (w *failingWriter) Header() http.Header       { return w.header }
func (w *failingWriter) WriteHeader(int)           {}
func (w *failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestFailedHandOffAbandonsLease: a job that was leased but could not be
// written must not sit out its lease TTL (an hour here). The transport
// abandons it, so the same user is dispatched again at once, as attempt
// 2, counted as one abandon and one reissue like any polite abandon.
func TestFailedHandOffAbandonsLease(t *testing.T) {
	transports := map[string]func(s *HTTPServer, e *Engine){
		"shared helper": func(s *HTTPServer, e *Engine) {
			boom := errors.New("boom")
			if leased, err := s.dispatchJob(tctx, e, false, func([]byte) error { return boom }); !leased || err != boom {
				t.Fatalf("dispatchJob = %v, %v; want true, boom", leased, err)
			}
		},
		"long-poll": func(s *HTTPServer, e *Engine) {
			req := httptest.NewRequest(http.MethodGet, "/v1/job?worker=1", nil)
			s.Handler().ServeHTTP(&failingWriter{header: http.Header{}}, req)
		},
		"framed pull": func(s *HTTPServer, e *Engine) {
			near, far := net.Pipe()
			far.Close()
			cn := frame.NewConn(near, 0)
			defer cn.Close()
			s.frameJobPull(tctx, cn, 3, 0)
		},
	}
	for name, dispatch := range transports {
		t.Run(name, func(t *testing.T) {
			e := treeEngine(t, 3, 4)
			srv := NewServer(e, 0)
			defer srv.Close()
			e.Scheduler().MarkStale(9)
			dispatch(srv, e)

			job, err := e.TryNextJob()
			if err != nil || job == nil {
				t.Fatalf("after a failed hand-off nothing is dispatchable (job %v, err %v): the lease was kept", job, err)
			}
			if u, _ := e.ResolveUser(core.UserID(job.UID), job.Epoch); u != 9 || job.Attempt != 2 {
				t.Fatalf("re-dispatched user %d attempt %d, want user 9 attempt 2", u, job.Attempt)
			}
			st := e.Scheduler().Stats()
			if st.Abandoned != 1 || st.Reissued != 1 || st.Expired != 0 || st.Dispatched != 2 {
				t.Fatalf("stats after one failed hand-off: %+v", st)
			}
		})
	}
}

// TestDispatchUnderRatingsAndRotation interleaves payload dispatch, user
// pulls, RateBatch and RotateAnonymizer (run it under -race). Two
// invariants hold for every interleaving: each payload's pseudonyms all
// belong to the epoch it is stamped with, and — leases being taken
// before the profile snapshot — no rating is absorbed: once the queue
// has drained, the last job issued for each user carries her final
// profile, because a rating that landed after that job's lease would
// have set dirty-again and queued another.
func TestDispatchUnderRatingsAndRotation(t *testing.T) {
	const users, items = 40, 60
	cfg := DefaultConfig()
	cfg.K, cfg.R = 4, 4
	cfg.LeaseTTL = time.Hour
	e := NewEngine(cfg)
	defer e.Close()

	views := map[uint64]*core.AliasView{0: e.anon.View()}
	var (
		mu       sync.Mutex
		payloads [][]byte
	)
	keep := func(raw []byte) {
		mu.Lock()
		payloads = append(payloads, bytes.Clone(raw))
		mu.Unlock()
	}

	ratersDone := make(chan struct{})
	ctx, stopDispatch := context.WithCancel(tctx)
	var raters, rest sync.WaitGroup
	for g := 0; g < 3; g++ {
		raters.Add(1)
		go func(seed int64) {
			defer raters.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				batch := make([]core.Rating, 1+rng.Intn(4))
				for j := range batch {
					batch[j] = core.Rating{User: core.UserID(1 + rng.Intn(users)), Item: core.ItemID(rng.Intn(items)), Liked: rng.Intn(3) > 0}
				}
				if err := e.RateBatch(tctx, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	// Rotator: the only writer of the anonymiser, so the view it pins
	// after each Advance is exactly that epoch's.
	rest.Add(1)
	go func() {
		defer rest.Done()
		for i := 0; i < 8; i++ {
			e.RotateAnonymizer()
			v := e.anon.View()
			mu.Lock()
			views[v.Epoch()] = v
			mu.Unlock()
			select {
			case <-ratersDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	// Dispatchers: lease, serialize, complete — a worker that never
	// computes anything.
	for g := 0; g < 2; g++ {
		rest.Add(1)
		go func(gz bool) {
			defer rest.Done()
			bufs := wire.GetPayloadBufs()
			defer wire.PutPayloadBufs(bufs)
			for ctx.Err() == nil {
				var lease uint64
				var err error
				bufs.JSON, bufs.Gz, lease, err = e.AppendNextJob(ctx, bufs.JSON[:0], bufs.Gz[:0], gz)
				if err != nil {
					t.Error(err)
					return
				}
				if lease == 0 {
					continue
				}
				keep(bufs.JSON)
				e.Ack(tctx, lease, true) // unknown when a pull superseded it
			}
		}(g == 1)
	}
	// A puller: user-driven jobs lease through Acquire.
	rest.Add(1)
	go func() {
		defer rest.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-ratersDone:
				return
			default:
			}
			raw, _, err := e.AppendJobPayload(tctx, core.UserID(1+rng.Intn(users)), nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			keep(raw)
			if job, err := wire.DecodeJob(raw); err == nil {
				e.Ack(tctx, job.Lease, true)
			}
		}
	}()

	raters.Wait()
	close(ratersDone)
	stopDispatch()
	rest.Wait()
	// Drain what the interleaving left pending.
	for {
		raw, _, lease, err := e.TryAppendNextJob(nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if lease == 0 {
			break
		}
		keep(raw)
		e.Ack(tctx, lease, true)
	}
	if !e.Scheduler().Quiet() {
		t.Fatalf("scheduler not quiet after the drain: %+v", e.Scheduler().Stats())
	}

	// Per epoch, the pseudonyms that epoch can have minted.
	type aliases struct {
		user map[uint32]core.UserID
		item map[uint32]core.ItemID
	}
	minted := map[uint64]aliases{}
	for epoch, v := range views {
		a := aliases{map[uint32]core.UserID{}, map[uint32]core.ItemID{}}
		for u := core.UserID(1); u <= users; u++ {
			a.user[uint32(v.AliasUser(u))] = u
		}
		for it := core.ItemID(0); it < items; it++ {
			a.item[uint32(v.AliasItem(it))] = it
		}
		minted[epoch] = a
	}
	last := map[core.UserID]*wire.Job{}
	for _, raw := range payloads {
		job, err := wire.DecodeJob(raw)
		if err != nil {
			t.Fatalf("payload does not decode: %v\n%s", err, raw)
		}
		a, ok := minted[job.Epoch]
		if !ok {
			t.Fatalf("payload stamped with epoch %d, which never existed", job.Epoch)
		}
		owner, ok := a.user[job.UID]
		if !ok || a.user[job.Profile.ID] != owner {
			t.Fatalf("epoch %d payload: uid %d / profile id %d are not one user's pseudonym in that epoch", job.Epoch, job.UID, job.Profile.ID)
		}
		for _, p := range append(job.Candidates, job.Profile) {
			if _, ok := a.user[p.ID]; !ok {
				t.Fatalf("epoch %d payload: profile id %d is no user's pseudonym in that epoch", job.Epoch, p.ID)
			}
			for _, alias := range append(slices.Clone(p.Liked), p.Disliked...) {
				if _, ok := a.item[alias]; !ok {
					t.Fatalf("epoch %d payload: item %d is no item's pseudonym in that epoch", job.Epoch, alias)
				}
			}
		}
		if prev := last[owner]; prev == nil || job.Lease > prev.Lease {
			last[owner] = job
		}
	}
	for u := core.UserID(1); u <= users; u++ {
		p := e.profiles.Get(u)
		if p.Size() == 0 {
			continue
		}
		job := last[u]
		if job == nil {
			t.Fatalf("user %d was rated but never issued a job", u)
		}
		if want := wire.ProfileToMsg(p, views[job.Epoch]); !reflect.DeepEqual(job.Profile, want) {
			t.Fatalf("user %d: her last job (lease %d) misses ratings and nothing is queued:\n job  %+v\n final %+v", u, job.Lease, job.Profile, want)
		}
	}
	t.Logf("%d payloads over %d epochs", len(payloads), len(views))
}

// TestStructJobReassembledAcrossRotation rotates the anonymiser in the
// middle of a struct job's assembly, after its epoch pin (the candidate
// filter runs inside the candidate loop). Job must hand back a job of the
// new epoch — one that still folds in after one more rotation, as any
// freshly issued job does — and must not chase a second rotation.
func TestStructJobReassembledAcrossRotation(t *testing.T) {
	var e *Engine
	rotations := 0
	cfg := testConfig()
	cfg.CandidateFilter = func(p core.Profile) core.Profile {
		if rotations > 0 {
			rotations--
			e.RotateAnonymizer()
		}
		return p
	}
	e = NewEngine(cfg)
	defer e.Close()
	seedRatings(t, e, 8)

	rotations = 1
	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.anon.Epoch(); job.Epoch != got {
		t.Fatalf("job stamped with epoch %d, anonymiser is at %d", job.Epoch, got)
	}
	e.RotateAnonymizer()
	res, _ := widget.New().Execute(job)
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatalf("fold-in one rotation after Job returned: %v", err)
	}

	// Rotations without end: the job is assembled twice and returned
	// behind the anonymiser, not retried until it catches up.
	rotations = 1 << 30
	_, before := e.CandidateSetStats()
	if job, err = e.Job(tctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, after := e.CandidateSetStats(); after != before+2 || job.Epoch >= e.anon.Epoch() {
		t.Fatalf("%d assemblies, job at epoch %d of %d; want 2 and a job left behind", after-before, job.Epoch, e.anon.Epoch())
	}
}
