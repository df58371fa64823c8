package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec/internal/wire"
)

// evictWakeSource wraps an Engine and reproduces the dispatch race of a
// scale-in: the first NextJob call answers nil immediately — the
// scheduler woken mid-Evict sees an empty queue for an instant — and
// later calls block until "work arrives" (the evicted users re-marked
// stale on their new partition), then serve a leased job. It embeds the
// Service interface, not *Engine, so it has the struct API only and the
// transport serves its NextJob rather than the engine's AppendNextJob.
type evictWakeSource struct {
	Service
	workReady chan struct{}
	job       *wire.Job

	mu    sync.Mutex
	calls int
}

func (s *evictWakeSource) NextJob(ctx context.Context) (*wire.Job, error) {
	s.mu.Lock()
	s.calls++
	first := s.calls == 1
	s.mu.Unlock()
	if first {
		return nil, nil
	}
	select {
	case <-ctx.Done():
		return nil, nil
	case <-s.workReady:
		return s.job, nil
	}
}

// TestV1WorkerLongPollSurvivesEvictRace is the regression test for the
// scale-in early-204: a long-poll whose first NextJob answers nil (the
// mid-Evict wake) must keep polling for the remaining wait window and
// pick up work that arrives mid-window instead of parking until the
// deadline and answering an idle 204.
func TestV1WorkerLongPollSurvivesEvictRace(t *testing.T) {
	e := NewEngine(testConfig())
	defer e.Close()
	src := &evictWakeSource{
		Service:   e,
		workReady: make(chan struct{}),
		job:       &wire.Job{UID: 42, Epoch: 1, K: 4, R: 4, Lease: 7, Attempt: 1},
	}
	srv := NewServer(src, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Work becomes available well inside the 2s window.
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(src.workReady)
	}()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/job?worker=1&wait=2s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode == http.StatusNoContent {
		t.Fatalf("long-poll answered idle 204 after %v despite work arriving at ~100ms", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status %d, want 200", resp.StatusCode)
	}
	if elapsed > time.Second {
		t.Fatalf("long-poll took %v to serve work that arrived at ~100ms", elapsed)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(body)
	if err != nil {
		t.Fatal(err)
	}
	if job.UID != 42 || job.Lease != 7 {
		t.Fatalf("served wrong job: %+v", job)
	}
}
