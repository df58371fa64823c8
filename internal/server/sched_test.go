package server

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// schedConfig returns a test configuration with the scheduler on. The
// lease TTL is long enough that nothing expires mid-test under a loaded
// -race CPU; expiry-path tests override it explicitly.
func schedConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.R = 3
	cfg.LeaseTTL = 2 * time.Second
	cfg.LeaseRetries = 1
	return cfg
}

// seedRatings rates n users with overlapping items so similarities are
// nonzero.
func seedRatings(t *testing.T, e *Engine, n int) {
	t.Helper()
	for u := core.UserID(1); u <= core.UserID(n); u++ {
		for j := 0; j < 4; j++ {
			if err := e.Rate(tctx, u, core.ItemID((int(u)+j)%8), true); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSyncPathByteEquivalentWithoutScheduler pins the acceptance
// criterion: with the scheduler disabled (the default configuration),
// the refactored engine's job payload is byte-identical to the generic
// synchronous encoding, wire.EncodeJob of the same job, with no lease
// metadata anywhere.
func TestSyncPathByteEquivalentWithoutScheduler(t *testing.T) {
	mk := func() *Engine {
		cfg := DefaultConfig()
		cfg.K = 4
		e := NewEngine(cfg)
		seedRatings(t, e, 25)
		return e
	}
	// Two identical engines consume their (deterministic, sharded) RNG
	// streams identically: one sample per assembly.
	e1, e2 := mk(), mk()
	for u := core.UserID(1); u <= 25; u++ {
		jsonBody, gz, err := e1.AppendJobPayload(tctx, u, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := wire.Decompress(gz)
		if err != nil || !bytes.Equal(raw, jsonBody) {
			t.Fatal("gzip payload does not round-trip")
		}
		job, err := e2.Job(tctx, u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.EncodeJob(job)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBody, want) {
			t.Fatalf("u%d: cached-assembly payload diverges from synchronous encoding:\n%s\n%s", u, jsonBody, want)
		}
		for _, key := range []string{`"lease"`, `"deadline_ms"`, `"attempt"`} {
			if bytes.Contains(jsonBody, []byte(key)) {
				t.Fatalf("scheduler-free payload leaks %s: %s", key, jsonBody)
			}
		}
	}
	if e1.Scheduler() != nil {
		t.Fatal("default config should not start a scheduler")
	}
}

func TestJobCarriesLeaseWhenSchedulerEnabled(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()
	seedRatings(t, e, 10)

	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.Lease == 0 || job.LeaseDeadlineMS == 0 || job.Attempt != 1 {
		t.Fatalf("job missing lease metadata: %+v", job)
	}

	// The cached payload path stamps and encodes the same metadata.
	raw, _, err := e.AppendJobPayload(tctx, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.DecodeJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Lease == 0 || decoded.Attempt != 1 {
		t.Fatalf("payload path lost lease metadata: %s", raw)
	}
	// Cached assembly must agree byte-for-byte with the generic encoder,
	// wire.EncodeJob of the decoded job.
	want, err := wire.EncodeJob(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("leased payload diverges from generic encoding:\n%s\n%s", raw, want)
	}
}

// TestWidgetResultRetiresLease runs the full async loop in-process:
// rating → staleness queue → worker dispatch → widget compute → fold-in
// acking the lease.
func TestWidgetResultRetiresLease(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()
	seedRatings(t, e, 10)

	w := widget.New()
	for {
		job, err := e.TryNextJob()
		if err != nil {
			t.Fatal(err)
		}
		if job == nil {
			break
		}
		if job.Lease == 0 {
			t.Fatalf("dispatched job without lease: %+v", job)
		}
		res, _ := w.Execute(job)
		if res.Lease != job.Lease {
			t.Fatalf("widget dropped the lease: job %d result %d", job.Lease, res.Lease)
		}
		if _, err := e.ApplyResult(tctx, res); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Scheduler().Quiet() {
		t.Fatalf("scheduler not quiet after draining: %+v", e.Scheduler().Stats())
	}
	st := e.Scheduler().Stats()
	if st.Dispatched == 0 || st.Acked != st.Dispatched {
		t.Fatalf("want every dispatch acked, got %+v", st)
	}
	for u := core.UserID(1); u <= 10; u++ {
		if !e.Scheduler().RefreshedUser(u) {
			t.Fatalf("user %d never refreshed", u)
		}
	}
}

func TestAckExplicitCompleteAndAbandon(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()
	seedRatings(t, e, 3)

	job, err := e.TryNextJob()
	if err != nil || job == nil {
		t.Fatalf("no job dispatched: %v", err)
	}
	// Abandon → immediate re-issue with attempt 2.
	if err := e.Ack(tctx, job.Lease, false); err != nil {
		t.Fatal(err)
	}
	again, err := e.TryNextJob()
	if err != nil || again == nil {
		t.Fatalf("abandoned job not re-issued: %v", err)
	}
	if again.Attempt != 2 {
		t.Fatalf("re-issue attempt = %d, want 2", again.Attempt)
	}
	if err := e.Ack(tctx, again.Lease, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Ack(tctx, again.Lease, true); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("double ack = %v, want ErrUnknownLease", err)
	}
}

func TestAckWithoutSchedulerIsUnknownLease(t *testing.T) {
	e := NewEngine(testConfig())
	if err := e.Ack(tctx, 1, true); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("ack on synchronous engine = %v, want ErrUnknownLease", err)
	}
	if job, err := e.TryNextJob(); job != nil || err != nil {
		t.Fatalf("TryNextJob on synchronous engine = %v, %v; want nil, nil", job, err)
	}
}

// TestFallbackRefreshesStragglers: leases nobody answers expire, burn
// their retry budget, and the fallback pool refreshes the rows locally.
func TestFallbackRefreshesStragglers(t *testing.T) {
	cfg := schedConfig()
	cfg.LeaseTTL = 20 * time.Millisecond
	cfg.LeaseRetries = -1 // first expiry goes straight to fallback
	cfg.FallbackWorkers = 2
	e := NewEngine(cfg)
	defer e.Close()
	seedRatings(t, e, 6)

	// Lease every pending job and walk away (straggler widgets).
	for {
		job, err := e.TryNextJob()
		if err != nil {
			t.Fatal(err)
		}
		if job == nil {
			break
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.Scheduler().Quiet() && len(e.Scheduler().Unrefreshed()) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if un := e.Scheduler().Unrefreshed(); len(un) != 0 {
		t.Fatalf("users never refreshed despite fallback pool: %v (stats %+v)",
			un, e.Scheduler().Stats())
	}
	st := e.Scheduler().Stats()
	if st.FallbackRuns == 0 {
		t.Fatalf("fallback pool never ran: %+v", st)
	}
	// The locally computed rows are real KNN rows.
	for u := core.UserID(1); u <= 6; u++ {
		if hood, _ := e.Neighbors(tctx, u); len(hood) == 0 {
			t.Fatalf("user %d has an empty KNN row after fallback refresh", u)
		}
	}
}

// TestNextJobBlocksAndWakes covers the long-poll dispatch path.
func TestNextJobBlocksAndWakes(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()

	ctx, cancel := context.WithTimeout(tctx, 30*time.Millisecond)
	defer cancel()
	if job, err := e.NextJob(ctx); job != nil || err != nil {
		t.Fatalf("empty queue NextJob = %v, %v; want nil, nil", job, err)
	}

	got := make(chan *wire.Job, 1)
	go func() {
		job, _ := e.NextJob(context.Background())
		got <- job
	}()
	time.Sleep(10 * time.Millisecond)
	if err := e.Rate(tctx, 9, 1, true); err != nil {
		t.Fatal(err)
	}
	select {
	case job := <-got:
		if job == nil || job.Lease == 0 {
			t.Fatalf("woken dispatch returned %+v", job)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextJob never woke on new staleness")
	}
}

// TestStaleResultStillRefreshes: a result whose lease already expired
// (or was superseded) must still fold in — and complete the cycle — as
// long as its epoch resolves.
func TestStaleResultStillRefreshes(t *testing.T) {
	cfg := schedConfig()
	cfg.LeaseTTL = time.Minute
	e := NewEngine(cfg)
	defer e.Close()
	seedRatings(t, e, 5)

	job, err := e.TryNextJob()
	if err != nil || job == nil {
		t.Fatal("no job")
	}
	// Supersede the lease via a user-driven request.
	u, ok := e.ResolveUser(core.UserID(job.UID), job.Epoch)
	if !ok {
		t.Fatal("cannot resolve own job uid")
	}
	if _, err := e.Job(tctx, u); err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job) // carries the superseded lease
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatalf("superseded-lease result rejected: %v", err)
	}
	if !e.Scheduler().RefreshedUser(u) {
		t.Fatal("fold-in with superseded lease did not refresh the user")
	}
}

// TestResultWithForeignLeaseDoesNotRetireIt: a widget result quoting
// another user's lease ID refreshes only its own user; the foreign
// lease stays outstanding.
func TestResultWithForeignLeaseDoesNotRetireIt(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()
	seedRatings(t, e, 4)

	jobA, err := e.TryNextJob()
	if err != nil || jobA == nil {
		t.Fatal("no job A")
	}
	jobB, err := e.TryNextJob()
	if err != nil || jobB == nil {
		t.Fatal("no job B")
	}
	resA, _ := widget.New().Execute(jobA)
	resA.Lease = jobB.Lease // forged / guessed foreign lease
	if _, err := e.ApplyResult(tctx, resA); err != nil {
		t.Fatal(err)
	}
	// B's lease survived the forgery and still acks.
	if err := e.Ack(tctx, jobB.Lease, true); err != nil {
		t.Fatalf("foreign lease was retired by A's result: %v", err)
	}
	// A's own cycle completed via the refresh fallback.
	uA, ok := e.ResolveUser(core.UserID(jobA.UID), jobA.Epoch)
	if !ok || !e.Scheduler().RefreshedUser(uA) {
		t.Fatal("A's fold-in did not refresh A")
	}
}

// TestRatingDuringLeasedJobRequeues: a rating that lands while the
// user's job is out is not absorbed by the completing lease — the user
// re-enters the staleness queue so the new opinion gets its refresh.
func TestRatingDuringLeasedJobRequeues(t *testing.T) {
	cfg := schedConfig()
	cfg.LeaseTTL = time.Minute
	e := NewEngine(cfg)
	defer e.Close()

	job, err := e.Job(tctx, 99) // user-driven: lease issued before snapshot
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rate(tctx, 99, 5, true); err != nil { // lands mid-flight
		t.Fatal(err)
	}
	if j, _ := e.TryNextJob(); j != nil {
		t.Fatal("re-dirty dispatched while the lease is still out")
	}
	res, _ := widget.New().Execute(job)
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatal(err)
	}
	again, err := e.TryNextJob()
	if err != nil || again == nil {
		t.Fatalf("mid-flight rating was absorbed; no refresh queued: %v", err)
	}
	u, ok := e.ResolveUser(core.UserID(again.UID), again.Epoch)
	if !ok || u != 99 {
		t.Fatalf("re-queued job is for user %d, want 99", u)
	}
}
