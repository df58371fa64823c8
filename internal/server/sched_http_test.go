package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

func newSchedTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(schedConfig())
	srv := NewServer(e, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); e.Close() })
	return e, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV1WorkerDispatchAndResult drives the whole worker wire protocol:
// rate → GET /v1/job?worker=1 → POST /v1/result → queue drained (204).
func TestV1WorkerDispatchAndResult(t *testing.T) {
	e, ts := newSchedTestServer(t)
	seedRatings(t, e, 4)

	w := widget.New()
	drained := false
	for i := 0; i < 20 && !drained; i++ {
		resp, err := http.Get(ts.URL + "/v1/job?worker=1")
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			resp.Body.Close()
			drained = true
		case http.StatusOK:
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			job, err := wire.DecodeJob(body)
			if err != nil {
				t.Fatal(err)
			}
			if job.Lease == 0 {
				t.Fatalf("worker job without lease: %+v", job)
			}
			res, _ := w.Execute(job)
			rr := postJSON(t, ts.URL+"/v1/result", res)
			if rr.StatusCode != http.StatusOK {
				t.Fatalf("result status %d", rr.StatusCode)
			}
			rr.Body.Close()
		default:
			t.Fatalf("worker job status %d", resp.StatusCode)
		}
	}
	if !drained {
		t.Fatal("queue never drained")
	}
	if !e.Scheduler().Quiet() {
		t.Fatalf("scheduler not quiet: %+v", e.Scheduler().Stats())
	}
}

func TestV1WorkerLongPollTimesOut(t *testing.T) {
	_, ts := newSchedTestServer(t)
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/job?worker=1&wait=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle long-poll status %d, want 204", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("long-poll returned after %v, should have waited ~50ms", elapsed)
	}
}

func TestV1WorkerOnSynchronousService(t *testing.T) {
	// A service without the scheduler answers 204 (no work, ever) rather
	// than erroring — workers pointed at a sync deployment idle politely.
	e := NewEngine(testConfig())
	srv := NewServer(e, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, err := http.Get(ts.URL + "/v1/job?worker=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("sync-service worker poll status %d, want 204", resp.StatusCode)
	}
}

func TestV1AckEnvelopes(t *testing.T) {
	e, ts := newSchedTestServer(t)
	seedRatings(t, e, 2)
	job, err := e.TryNextJob()
	if err != nil || job == nil {
		t.Fatal("no job")
	}

	// Happy path.
	resp := postJSON(t, ts.URL+"/v1/ack", wire.AckRequest{Lease: job.Lease, Done: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack status %d", resp.StatusCode)
	}
	var ack wire.AckResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.Status != "ok" {
		t.Fatalf("ack body %+v, %v", ack, err)
	}
	resp.Body.Close()

	// Unknown lease → 404 with the typed envelope.
	resp = postJSON(t, ts.URL+"/v1/ack", wire.AckRequest{Lease: job.Lease, Done: true})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double-ack status %d, want 404", resp.StatusCode)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Error.Code != wire.CodeUnknownLease {
		t.Fatalf("double-ack code %q, want %q", env.Error.Code, wire.CodeUnknownLease)
	}

	// Missing lease and wrong method.
	resp = postJSON(t, ts.URL+"/v1/ack", wire.AckRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ack status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	getResp, err := http.Get(ts.URL + "/v1/ack")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ack status %d, want 405", getResp.StatusCode)
	}
	getResp.Body.Close()
}

// TestV1UserJobStillMintsLease: the user-driven /v1/job path serves
// lease-stamped payloads when the scheduler runs.
func TestV1UserJobStillMintsLease(t *testing.T) {
	e, ts := newSchedTestServer(t)
	seedRatings(t, e, 2)
	resp, err := http.Get(fmt.Sprintf("%s/v1/job?uid=%d", ts.URL, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(body)
	if err != nil {
		t.Fatal(err)
	}
	if job.Lease == 0 || job.Attempt != 1 {
		t.Fatalf("user-path job missing lease: %+v", job)
	}
	if _, ok := e.ResolveUser(core.UserID(job.UID), job.Epoch); !ok {
		t.Fatal("job UID does not resolve")
	}
}
