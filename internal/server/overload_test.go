package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
)

// blockingService embeds a real engine but parks RateBatch on a channel
// so tests can hold a Rating admission slot for as long as they like.
type blockingService struct {
	*Engine
	entered chan struct{}
	release chan struct{}
}

func (b *blockingService) RateBatch(ctx context.Context, rs []core.Rating) error {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return b.Engine.RateBatch(ctx, rs)
}

func newBlockingService(t *testing.T, cfg Config) *blockingService {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(func() { e.Close() })
	return &blockingService{
		Engine:  e,
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
}

const rateBody = `{"ratings":[{"uid":1,"item":5,"liked":true}]}`

// TestHTTPRatingOverloadSheds: with MaxInflightRating=1 and the single
// slot held by a parked handler, the next rating answers a typed 429
// with a Retry-After header and retry_after_ms in the error envelope,
// and the shed shows up on /stats.
func TestHTTPRatingOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflightRating = 1
	svc := newBlockingService(t, cfg)
	s := NewServer(svc, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/rate", "application/json", strings.NewReader(rateBody))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-svc.entered // the slot is now held inside RateBatch

	resp, err := http.Post(ts.URL+"/v1/rate", "application/json", strings.NewReader(rateBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second rating got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != wire.CodeOverloaded {
		t.Fatalf("error code = %q, want %q", env.Error.Code, wire.CodeOverloaded)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", env.Error.RetryAfterMS)
	}

	stats := httpStats(t, ts.URL)
	if shed, _ := stats["shed_total"].(float64); shed < 1 {
		t.Fatalf("stats shed_total = %v, want >= 1", stats["shed_total"])
	}
	if shed, _ := stats["shed_rating"].(float64); shed < 1 {
		t.Fatalf("stats shed_rating = %v, want >= 1", stats["shed_rating"])
	}

	close(svc.release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked first rating finished with %d, want 200", code)
	}
}

// TestHTTPWorkerOverloadSheds: a parked worker long-poll holds its
// Worker admission slot for the whole wait window, so a second worker
// poll sheds immediately (no grace for the worker class).
func TestHTTPWorkerOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.LeaseTTL = time.Minute
	cfg.MaxInflightWorker = 1
	e := NewEngine(cfg)
	s := NewServer(e, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close() // releases the parked long-poll so ts.Close doesn't wait it out
		ts.Close()
		e.Close()
	})

	go http.Get(ts.URL + "/v1/job?worker=1&wait=5s")
	deadline := time.Now().Add(2 * time.Second)
	for s.Gate().Inflight(admit.Worker) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first worker poll never took its admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/job?worker=1&wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second worker poll got %d, want 429", resp.StatusCode)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != wire.CodeOverloaded {
		t.Fatalf("error code = %q, want %q", env.Error.Code, wire.CodeOverloaded)
	}
}

// readParkingService embeds a real engine but parks its first `parked`
// Recommendations calls until release closes, so a test holds Read
// admission slots for as long as it likes.
type readParkingService struct {
	*Engine
	parked  atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (p *readParkingService) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	if p.parked.Add(-1) >= 0 {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.Engine.Recommendations(ctx, u, n)
}

// TestOverloadProtectsIngest: with every Read and Worker admission slot
// held by a parked handler, a flood of recommendation reads and worker
// long-polls over raw HTTP is shed in full, while concurrent rating
// ingest through the same server, its own class bounded too, sheds
// nothing, fails nothing and lands every rating. Everything is counted,
// nothing timed, so the outcome does not depend on the host's speed.
func TestOverloadProtectsIngest(t *testing.T) {
	const (
		users     = 64
		ingesters = 4
		batches   = 16 // per ingester
		batchSize = 32
		flooders  = 8
		floodReqs = 40 // per flooder; every fourth is a worker poll
	)
	cfg := testConfig()
	cfg.LeaseTTL = 5 * time.Minute
	cfg.MaxInflightRating = ingesters
	cfg.MaxInflightRead = 2
	cfg.MaxInflightWorker = 1
	e := NewEngine(cfg)
	svc := &readParkingService{
		Engine:  e,
		entered: make(chan struct{}, cfg.MaxInflightRead),
		release: make(chan struct{}),
	}
	svc.parked.Store(int64(cfg.MaxInflightRead))
	s := NewServer(svc, 0)
	ts := httptest.NewServer(s.Handler())
	var releaseOnce sync.Once
	releaseReads := func() { releaseOnce.Do(func() { close(svc.release) }) }
	t.Cleanup(func() {
		releaseReads()
		s.Close() // releases the parked long-poll
		ts.Close()
		e.Close()
	})

	// Every user rated, then leased out and never acked: the queue stays
	// empty, because a rating for a leased user marks it dirty again
	// rather than re-enqueueing it, so the parked poll never gets a job.
	seed := make([]core.Rating, users)
	for i := range seed {
		seed[i] = core.Rating{User: core.UserID(i + 1), Item: 1, Liked: true}
	}
	if err := e.RateBatch(tctx, seed); err != nil {
		t.Fatal(err)
	}
	for leased := 0; ; leased++ {
		job, err := e.TryNextJob()
		if err != nil {
			t.Fatal(err)
		}
		if job == nil {
			if leased != users {
				t.Fatalf("leased %d jobs, want %d", leased, users)
			}
			break
		}
	}

	get := func(url string) (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for i := 0; i < cfg.MaxInflightRead; i++ {
		go get(ts.URL + "/v1/recs?uid=1")
		<-svc.entered
	}
	go get(ts.URL + "/v1/job?worker=1&wait=25s")
	for deadline := time.Now().Add(2 * time.Second); s.Gate().Inflight(admit.Worker) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("parked worker poll never took its admission slot")
		}
	}

	// Rating n goes to user n mod 64 + 1 as item 1000+n: every rating is
	// a distinct (user, item) pair, so each one can be found afterwards.
	rating := func(n int) core.Rating {
		return core.Rating{User: core.UserID(n%users + 1), Item: core.ItemID(1000 + n), Liked: n%3 != 0}
	}
	var floodAdmitted, ingestFailed atomic.Int64
	var wg sync.WaitGroup
	for f := 0; f < flooders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < floodReqs; i++ {
				url := fmt.Sprintf("%s/v1/recs?uid=%d", ts.URL, (f*floodReqs+i)%users+1)
				if i%4 == 3 {
					url = ts.URL + "/v1/job?worker=1&wait=1s"
				}
				if code, err := get(url); err != nil || code != http.StatusTooManyRequests {
					floodAdmitted.Add(1)
				}
			}
		}(f)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := g * batches; b < (g+1)*batches; b++ {
				var req wire.RateRequest
				for n := b * batchSize; n < (b+1)*batchSize; n++ {
					r := rating(n)
					req.Ratings = append(req.Ratings, wire.RatingMsg{UID: uint32(r.User), Item: uint32(r.Item), Liked: r.Liked})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(body))
				if err != nil {
					ingestFailed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					ingestFailed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	gate := s.Gate()
	shedRead, shedWorker := gate.Shed(admit.Read), gate.Shed(admit.Worker)
	t.Logf("shed: read %d, worker %d, rating %d", shedRead, shedWorker, gate.Shed(admit.Rating))
	if shedRead+shedWorker == 0 {
		t.Fatal("gate shed nothing: the flood was never admission-limited")
	}
	if n := floodAdmitted.Load(); n != 0 {
		t.Fatalf("%d flood requests were not shed with every Read and Worker slot held", n)
	}
	if shed := gate.Shed(admit.Rating); shed != 0 {
		t.Fatalf("%d rating requests shed under the flood, want 0", shed)
	}
	if n := ingestFailed.Load(); n != 0 {
		t.Fatalf("%d rating batches failed under the flood, want 0", n)
	}
	for n := 0; n < ingesters*batches*batchSize; n++ {
		r := rating(n)
		p := e.Profiles().Get(r.User)
		if !p.Contains(r.Item) || p.LikedContains(r.Item) != r.Liked {
			t.Fatalf("rating %+v did not land: profile %v", r, p)
		}
	}
	releaseReads()
}

// TestFrameOverloadSheds: the framed plane shares the same gate. With
// the only Rating slot held via a parked handler on connection A,
// connection B's TRateBatch answers a TError carrying the overloaded
// code and a retry-after hint.
func TestFrameOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflightRating = 1
	svc := newBlockingService(t, cfg)
	s := NewServer(svc, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeFrames(ln)
	t.Cleanup(func() { s.Close() })
	addr := ln.Addr().String()

	ca := dialFrame(t, addr, "")
	ratings := []core.Rating{{User: 1, Item: 5, Liked: true}}
	if err := ca.WriteFrame(frame.TRateBatch, 3, frame.AppendRateBatch(nil, ratings)); err != nil {
		t.Fatal(err)
	}
	<-svc.entered // connection A's read loop is parked inside RateBatch, slot held

	cb := dialFrame(t, addr, "")
	f := frameCall(t, cb, frame.TRateBatch, 5, frame.AppendRateBatch(nil, ratings))
	if f.Type != frame.TError {
		t.Fatalf("overloaded rate batch answered %#x, want TError", byte(f.Type))
	}
	code, _, _, retryMS, err := frame.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != wire.CodeOverloaded {
		t.Fatalf("TError code = %q, want %q", code, wire.CodeOverloaded)
	}
	if retryMS == 0 {
		t.Fatal("TError carries no retry-after hint")
	}

	close(svc.release)
	f, err = ca.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frame.TRateOK {
		t.Fatalf("released rate batch answered %#x, want TRateOK", byte(f.Type))
	}
}

// TestFramePullConnCap: a single connection may park at most
// maxConnPullStreams job pulls; the next pull is refused with the
// overloaded code instead of spawning another goroutine.
func TestFramePullConnCap(t *testing.T) {
	old := maxConnPullStreams
	maxConnPullStreams = 2
	t.Cleanup(func() { maxConnPullStreams = old })

	cfg := testConfig()
	cfg.LeaseTTL = time.Minute
	_, _, addr := newFrameServer(t, cfg, "")
	cn := dialFrame(t, addr, "")

	// The read loop handles frames sequentially and the pull counter
	// only drops when a park expires (5s away), so by the time the
	// third pull is examined the first two are counted.
	for i := uint64(1); i <= 3; i++ {
		if err := cn.WriteFrame(frame.TJobPull, i, frame.AppendUint(nil, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frame.TError || f.Stream != 3 {
		t.Fatalf("got %#x on stream %d, want TError on stream 3", byte(f.Type), f.Stream)
	}
	code, _, _, retryMS, err := frame.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != wire.CodeOverloaded || retryMS == 0 {
		t.Fatalf("refused pull answered code=%q retryMS=%d, want overloaded with a hint", code, retryMS)
	}
}

// TestFramePullServerCap: parked pulls are also bounded server-wide,
// across connections.
func TestFramePullServerCap(t *testing.T) {
	old := maxServerPullStreams
	maxServerPullStreams = 1
	t.Cleanup(func() { maxServerPullStreams = old })

	cfg := testConfig()
	cfg.LeaseTTL = time.Minute
	_, srv, addr := newFrameServer(t, cfg, "")

	ca := dialFrame(t, addr, "")
	if err := ca.WriteFrame(frame.TJobPull, 1, frame.AppendUint(nil, 5000)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.frameStreams.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first pull never parked")
		}
		time.Sleep(time.Millisecond)
	}

	cb := dialFrame(t, addr, "")
	f := frameCall(t, cb, frame.TJobPull, 1, frame.AppendUint(nil, 5000))
	if f.Type != frame.TError {
		t.Fatalf("second connection's pull answered %#x, want TError", byte(f.Type))
	}
	code, _, _, _, err := frame.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != wire.CodeOverloaded {
		t.Fatalf("TError code = %q, want %q", code, wire.CodeOverloaded)
	}
}

// TestFrameHandshakeSlowloris: a connection that dials and never sends
// its THello is cut off by the handshake read deadline instead of
// pinning a read-loop goroutine forever, and the listener keeps
// serving handshakes afterwards.
func TestFrameHandshakeSlowloris(t *testing.T) {
	old := frameHelloTimeout.Swap(int64(100 * time.Millisecond))
	t.Cleanup(func() { frameHelloTimeout.Store(old) })

	_, _, addr := newFrameServer(t, testConfig(), "")

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("server sent bytes to a silent connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the silent connection within 2s (handshake deadline not enforced)")
	}

	// The listener is still healthy: a well-behaved handshake completes.
	cn := dialFrame(t, addr, "")
	f := frameCall(t, cn, frame.TRateBatch, 3, frame.AppendRateBatch(nil, []core.Rating{{User: 1, Item: 2, Liked: true}}))
	if f.Type != frame.TRateOK {
		t.Fatalf("post-slowloris rate batch answered %#x, want TRateOK", byte(f.Type))
	}
}

// httpStats fetches and decodes /stats.
func httpStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}
