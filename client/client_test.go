package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
	"hyrec/internal/widget"
)

var tctx = context.Background()

func newTestServer(t testing.TB) (*hyrec.Engine, *httptest.Server) {
	t.Helper()
	cfg := hyrec.DefaultConfig()
	cfg.K = 3
	eng := hyrec.NewEngine(cfg)
	srv := hyrec.NewServiceServer(eng, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return eng, ts
}

// TestClientIsService pins the drop-in property: a remote client
// satisfies the same interface the in-process engines do.
func TestClientIsService(t *testing.T) {
	var _ hyrec.Service = (*Client)(nil)
}

// TestClientFullLoop runs the complete widget protocol through the typed
// client: batch rate, job (gzip-negotiated), widget execution, result,
// recommendations, neighbors.
func TestClientFullLoop(t *testing.T) {
	_, ts := newTestServer(t)
	c := New(ts.URL)
	defer c.Close()

	var ratings []hyrec.Rating
	for u := hyrec.UserID(1); u <= 10; u++ {
		ratings = append(ratings,
			hyrec.Rating{User: u, Item: hyrec.ItemID(u % 3), Liked: true},
			hyrec.Rating{User: u, Item: 100, Liked: true})
	}
	if err := c.RateBatch(tctx, ratings); err != nil {
		t.Fatal(err)
	}

	w := widget.New()
	gotRecs := false
	for round := 0; round < 3; round++ {
		for u := hyrec.UserID(1); u <= 10; u++ {
			job, err := c.Job(tctx, u)
			if err != nil {
				t.Fatalf("job(%d): %v", u, err)
			}
			res, _ := w.Execute(job)
			recs, err := c.ApplyResult(tctx, res)
			if err != nil {
				t.Fatalf("apply(%d): %v", u, err)
			}
			if len(recs) > 0 {
				gotRecs = true
			}
		}
	}
	if !gotRecs {
		t.Fatal("no recommendations after three client rounds")
	}

	sawHood := false
	for u := hyrec.UserID(1); u <= 10; u++ {
		hood, err := c.Neighbors(tctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(hood) > 0 {
			sawHood = true
		}
		if _, err := c.Recommendations(tctx, u, 5); err != nil {
			t.Fatal(err)
		}
	}
	if !sawHood {
		t.Fatal("no neighborhoods visible through the client")
	}
}

// TestClientBatching verifies buffered Rate calls reach the server as
// batches: a size-triggered flush, then a Flush-forced tail.
func TestClientBatching(t *testing.T) {
	eng, ts := newTestServer(t)
	c := New(ts.URL, WithBatch(4, time.Hour)) // timer never fires in-test
	defer c.Close()

	for i := 0; i < 6; i++ {
		if err := c.Rate(tctx, hyrec.UserID(i+1), 7, true); err != nil {
			t.Fatal(err)
		}
	}
	// 4 flushed by size; 2 still buffered.
	if got := eng.Profiles().Len(); got != 4 {
		t.Fatalf("after size flush: %d users on server, want 4", got)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if got := eng.Profiles().Len(); got != 6 {
		t.Fatalf("after Flush: %d users on server, want 6", got)
	}
}

// TestClientCloseFlushes verifies Close drains the buffer.
func TestClientCloseFlushes(t *testing.T) {
	eng, ts := newTestServer(t)
	c := New(ts.URL, WithBatch(100, time.Hour))
	for i := 0; i < 5; i++ {
		if err := c.Rate(tctx, hyrec.UserID(i+1), 7, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Profiles().Len(); got != 5 {
		t.Fatalf("after Close: %d users on server, want 5", got)
	}
	// Close is idempotent; Rate after Close fails.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rate(tctx, 9, 9, true); err == nil {
		t.Fatal("Rate after Close succeeded")
	}
}

// TestClientRetries verifies transient 5xx responses are retried with
// backoff until the server recovers.
func TestClientRetries(t *testing.T) {
	var calls atomic.Int32
	eng := hyrec.NewEngine(hyrec.DefaultConfig())
	srv := hyrec.NewServiceServer(eng, 0)
	inner := srv.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	defer srv.Close()

	c := New(flaky.URL, WithRetries(3, time.Millisecond))
	defer c.Close()
	if err := c.Rate(tctx, 1, 2, true); err != nil {
		t.Fatalf("retried rate failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if !eng.KnownUser(1) {
		t.Fatal("rating did not land after retries")
	}

	// With retries exhausted the typed error surfaces.
	calls.Store(-100)
	err := c.Rate(tctx, 2, 2, true)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError 502", err)
	}
}

// TestClientErrorMapping verifies envelope codes map onto the Service
// sentinels via errors.Is.
func TestClientErrorMapping(t *testing.T) {
	eng, ts := newTestServer(t)
	c := New(ts.URL)
	defer c.Close()

	if err := c.Rate(tctx, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	job, err := c.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job)
	eng.RotateAnonymizer()
	eng.RotateAnonymizer()
	_, err = c.ApplyResult(tctx, res)
	if !errors.Is(err, hyrec.ErrStaleEpoch) {
		t.Fatalf("stale result error = %v, want errors.Is(_, ErrStaleEpoch)", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("stale result error = %v, want APIError 410", err)
	}
}

// TestClientContextDeadline verifies an expired context fails fast
// without hitting the server.
// TestClientStaleEpochEndToEnd drives the ErrStaleEpoch path through
// the full /v1 envelope: a widget result minted two anonymiser epochs
// ago is rejected with the typed error (the client maps the wire code
// onto the sentinel), and a fresh job for the same user then succeeds.
func TestClientStaleEpochEndToEnd(t *testing.T) {
	eng, ts := newTestServer(t)
	c := New(ts.URL)
	defer c.Close()

	for u := hyrec.UserID(1); u <= 5; u++ {
		if err := c.Rate(tctx, u, hyrec.ItemID(u%3), true); err != nil {
			t.Fatal(err)
		}
	}
	w := widget.New()
	staleJob, err := c.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	staleRes, _ := w.Execute(staleJob)

	// Two rotations: the job's epoch is now neither current nor previous,
	// so its pseudonyms no longer resolve.
	eng.RotateAnonymizer()
	eng.RotateAnonymizer()

	_, err = c.ApplyResult(tctx, staleRes)
	if err == nil {
		t.Fatal("stale-epoch result accepted")
	}
	if !errors.Is(err, hyrec.ErrStaleEpoch) {
		t.Fatalf("errors.Is(err, ErrStaleEpoch) = false for %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 410 {
		t.Fatalf("want APIError with 410 Gone, got %v", err)
	}

	// Recovery: a fresh job carries the new epoch and folds in cleanly.
	freshJob, err := c.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freshJob.Epoch == staleJob.Epoch {
		t.Fatal("rotation did not advance the job epoch")
	}
	freshRes, _ := w.Execute(freshJob)
	if _, err := c.ApplyResult(tctx, freshRes); err != nil {
		t.Fatalf("fresh-lease result rejected: %v", err)
	}
	if hood, err := c.Neighbors(tctx, 1); err != nil || len(hood) == 0 {
		t.Fatalf("no neighborhood after recovery: %v %v", hood, err)
	}
}

func TestClientContextDeadline(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(5, time.Second))
	defer c.Close()

	ctx, cancel := context.WithCancel(tctx)
	cancel()
	if err := c.RateBatch(ctx, []hyrec.Rating{{User: 1, Item: 1, Liked: true}}); err == nil {
		t.Fatal("cancelled context succeeded")
	}
	if calls.Load() > 1 {
		t.Fatalf("cancelled context still retried %d times", calls.Load())
	}
}

// TestClientMovedRetriesOnceAfterTopologyRefresh: a CodeMoved answer
// makes the client refetch GET /v1/topology and retry the request
// exactly once; a second moved answer surfaces as hyrec.ErrMoved.
func TestClientMovedRetriesOnceAfterTopologyRefresh(t *testing.T) {
	var resultCalls, topoCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		if resultCalls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			w.Write([]byte(`{"error":{"code":"moved","message":"user moved"}}`))
			return
		}
		if topoCalls.Load() == 0 {
			t.Error("retry issued before the topology refresh")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"recs":[7]}`))
	})
	mux.HandleFunc("/v1/topology", func(w http.ResponseWriter, r *http.Request) {
		topoCalls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"partitions":4,"vnodes":64,"migrating":false,"users_moved_total":12}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	defer c.Close()
	recs, err := c.ApplyResult(tctx, &hyrec.Result{UID: 1})
	if err != nil {
		t.Fatalf("moved answer not retried: %v", err)
	}
	if len(recs) != 1 || recs[0] != 7 {
		t.Fatalf("retried result = %v", recs)
	}
	if got := resultCalls.Load(); got != 2 {
		t.Fatalf("result endpoint hit %d times, want 2 (original + one retry)", got)
	}
	if got := topoCalls.Load(); got != 1 {
		t.Fatalf("topology refetched %d times, want 1", got)
	}
	topo := c.CachedTopology()
	if topo == nil || topo.Partitions != 4 {
		t.Fatalf("topology cache not refreshed: %+v", topo)
	}
}

// TestClientMovedSurfacesAfterOneRetry: persistent moved answers stop
// after one retry and map onto hyrec.ErrMoved via errors.Is.
func TestClientMovedSurfacesAfterOneRetry(t *testing.T) {
	var resultCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		resultCalls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		w.Write([]byte(`{"error":{"code":"moved","message":"still moved"}}`))
	})
	mux.HandleFunc("/v1/topology", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"partitions":2,"migrating":false,"users_moved_total":0}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	defer c.Close()
	_, err := c.ApplyResult(tctx, &hyrec.Result{UID: 1})
	if !errors.Is(err, hyrec.ErrMoved) {
		t.Fatalf("persistent moved = %v, want hyrec.ErrMoved", err)
	}
	if got := resultCalls.Load(); got != 2 {
		t.Fatalf("result endpoint hit %d times, want exactly 2", got)
	}
}

// TestClientTopologyFetch: the explicit Topology call decodes the
// endpoint and scaling through Client.Scale reshapes a live cluster.
func TestClientTopologyFetch(t *testing.T) {
	cfg := hyrec.DefaultConfig()
	cl := hyrec.NewCluster(cfg, 2)
	srv := hyrec.NewServiceServer(cl, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close(); cl.Close() }()

	c := New(ts.URL)
	defer c.Close()
	for u := hyrec.UserID(1); u <= 30; u++ {
		if err := c.Rate(tctx, u, hyrec.ItemID(u), true); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := c.Topology(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Partitions != 2 {
		t.Fatalf("topology = %+v", topo)
	}
	topo, err = c.Scale(tctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Partitions != 4 || topo.Migrating {
		t.Fatalf("post-scale topology = %+v", topo)
	}
	if cl.NumPartitions() != 4 {
		t.Fatalf("cluster not scaled: %d", cl.NumPartitions())
	}
}

// deadlineOnlyCtx has a deadline but never reports itself done: it
// stands for the instant after the deadline has passed and before the
// context's timer has fired, which a transport can observe first.
type deadlineOnlyCtx struct {
	context.Context
	deadline time.Time
}

func (c deadlineOnlyCtx) Deadline() (time.Time, bool) { return c.deadline, true }

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestNextJobDeadlineRace: a long-poll whose transport reports the
// deadline before the context does is an empty poll, not an error; a
// deadline error while the poll still has time is retried once; other
// errors surface.
func TestNextJobDeadlineRace(t *testing.T) {
	afterDeadline := func(err error) roundTripFunc {
		return func(r *http.Request) (*http.Response, error) {
			dl, _ := r.Context().Deadline()
			time.Sleep(time.Until(dl))
			return nil, err
		}
	}
	// early fails its first n requests with a deadline error at once —
	// a connection an earlier poll's expiry closed — then answers 204.
	early := func(n int) roundTripFunc {
		return func(r *http.Request) (*http.Response, error) {
			if n > 0 {
				n--
				return nil, context.DeadlineExceeded
			}
			return &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody, Request: r}, nil
		}
	}
	for _, tc := range []struct {
		name      string
		rt        roundTripFunc
		wantErr   bool
		wantCalls int
	}{
		{"context deadline after the deadline", afterDeadline(context.DeadlineExceeded), false, 1},
		{"i/o timeout after the deadline", afterDeadline(os.ErrDeadlineExceeded), false, 1},
		{"other error after the deadline", afterDeadline(errors.New("connection reset")), true, 1},
		{"one stale deadline error, then an empty poll", early(1), false, -1},
		{"stale deadline errors twice", early(2), true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
				calls++
				return tc.rt(r)
			})
			c := New("http://stub.invalid", WithHTTPClient(&http.Client{Transport: rt}))
			defer c.Close()
			ctx := deadlineOnlyCtx{Context: context.Background(), deadline: time.Now().Add(30 * time.Millisecond)}
			job, err := c.NextJob(ctx)
			if job != nil {
				t.Fatalf("NextJob returned a job: %+v", job)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("NextJob error = %v, want error: %v", err, tc.wantErr)
			}
			if tc.wantCalls > 0 && calls != tc.wantCalls {
				t.Fatalf("%d requests, want %d", calls, tc.wantCalls)
			}
		})
	}
}
