package client

import (
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hyrec"
	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// countingListener counts accepted connections — each accept is one
// TCP dial the client paid.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestClientPoolBoundsDialsUnderConcurrency is the connection-churn
// regression test: N workers hammering one host through the typed
// client must reuse pooled connections, not redial per request. (The
// zero-value http.Transport keeps only 2 idle connections per host,
// which under concurrent load turns almost every request into a fresh
// dial — the client sizes its pool explicitly to avoid that.)
func TestClientPoolBoundsDialsUnderConcurrency(t *testing.T) {
	cfg := hyrec.DefaultConfig()
	cfg.K = 3
	eng := hyrec.NewEngine(cfg)
	srv := hyrec.NewServiceServer(eng, 0)
	ts := httptest.NewUnstartedServer(srv.Handler())
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })

	if err := eng.Rate(tctx, 1, 1, true); err != nil {
		t.Fatal(err)
	}

	c := New(ts.URL)
	defer c.Close()

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Recommendations(tctx, 1, 3); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// With a correctly sized pool the dial count is bounded by peak
	// concurrency; churn through a 2-connection pool would push it
	// toward the request count (400).
	if got := cl.accepts.Load(); got > workers*2 {
		t.Fatalf("%d TCP dials for %d requests from %d workers — connection pool is churning",
			got, workers*perWorker, workers)
	}
}

// TestJobAllocsOverLoopback pins what fetching a job adds, in
// allocations, to an HTTP exchange — over a real socket, with the
// server's handler in the count (AllocsPerRun sees the whole process).
// Two shares are not the job path's to spend and are measured here
// rather than assumed: a bodyless GET through net/http on both ends
// (~80), and compress/flate's per-block Huffman link tables (one or two
// per candidate fragment; see TestPooledInflateAllocs). What is left —
// the server assembling the payload, the client reading, inflating and
// decoding it — was ~1100 allocations when the body was read by
// doubling, inflated through a fresh reader and decoded by reflection,
// and must stay a couple of dozen whatever the job carries.
func TestJobAllocsOverLoopback(t *testing.T) {
	eng := hyrec.NewEngine(hyrec.DefaultConfig())
	srv := hyrec.NewServiceServer(eng, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })

	// Dense profiles and a converged graph, so a job carries candidates
	// by the dozen, as the paper's does.
	rng := rand.New(rand.NewSource(7))
	const users = 200
	var batch []core.Rating
	for u := 1; u <= users; u++ {
		batch = batch[:0]
		for i := 0; i < 150; i++ {
			batch = append(batch, core.Rating{User: core.UserID(u), Item: core.ItemID(rng.Intn(1500)), Liked: rng.Intn(5) > 0})
		}
		if err := eng.RateBatch(tctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	c := New(ts.URL)
	defer c.Close()
	w := widget.New()
	for round := 0; round < 3; round++ {
		for u := 1; u <= users; u++ {
			job, err := c.Job(tctx, core.UserID(u))
			if err != nil {
				t.Fatal(err)
			}
			res, _ := w.Execute(job)
			if _, err := c.ApplyResult(tctx, res); err != nil {
				t.Fatal(err)
			}
		}
	}

	bare := testing.AllocsPerRun(100, func() {
		if err := c.exchange(tctx, &call{op: opNeighbors, query: "?uid=1"}); err != nil {
			t.Fatal(err)
		}
	})
	// Candidate sampling makes every payload a little different, so the
	// decoder's share is averaged over a few of them.
	const payloads = 20
	var inflate float64
	for i := 0; i < payloads; i++ {
		rb := getRespBufs()
		if _, _, err := c.roundTrip(tctx, c.base, &call{op: opJob, query: "?uid=1"}, nil, rb); err != nil {
			t.Fatal(err)
		}
		gz := *rb.body // the body as it crossed the wire
		inflate += testing.AllocsPerRun(5, func() {
			var err error
			if *rb.plain, err = wire.AppendDecompress((*rb.plain)[:0], gz); err != nil {
				t.Fatal(err)
			}
		}) / payloads
		rb.release()
	}
	var job *wire.Job
	total := testing.AllocsPerRun(100, func() {
		var err error
		if job, err = c.Job(tctx, 1); err != nil {
			t.Fatal(err)
		}
	})
	own := total - bare - inflate
	t.Logf("%d candidates: %.0f allocs per Job = %.0f bodyless exchange + %.0f flate tables + %.0f job path",
		len(job.Candidates), total, bare, inflate, own)
	if len(job.Candidates) < 50 {
		t.Fatalf("job carries %d candidates; the fixture no longer exercises a dense job", len(job.Candidates))
	}
	if own > 32 && !raceEnabled {
		t.Fatalf("the job path adds %.0f allocations to the exchange, want ≤ 32", own)
	}
}
