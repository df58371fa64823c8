package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyrec/internal/widget"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// fixedJobSource always dispatches the same job, encoded by the pooled
// wire.AppendJob encoder, so the long-poll body and the socket push
// frame can be compared byte for byte.
type fixedJobSource struct {
	*Engine
	job *wire.Job
}

func (s *fixedJobSource) AppendNextJob(_ context.Context, jsonDst, gzDst []byte, _ bool) ([]byte, []byte, uint64, error) {
	return wire.AppendJob(jsonDst, s.job, nil), gzDst, s.job.Lease, nil
}

// TestV1WorkerWSByteEquivalentToLongPoll pins the acceptance criterion:
// the socket transport pushes the exact bytes the long-poll transport
// would have answered — both ship the backend's AppendNextJob payload
// untouched — and those bytes match the generic form, wire.EncodeJob.
func TestV1WorkerWSByteEquivalentToLongPoll(t *testing.T) {
	e := NewEngine(testConfig())
	defer e.Close()
	src := &fixedJobSource{
		Engine: e,
		job: &wire.Job{
			UID: 7, Epoch: 3, K: 4, R: 4,
			Lease: 99, LeaseDeadlineMS: 1717171717171, Attempt: 2,
			Profile: wire.ProfileMsg{ID: 7, Liked: []uint32{1, 2, 5}},
			Candidates: []wire.ProfileMsg{
				{ID: 11, Liked: []uint32{1, 9}},
				{ID: 12, Liked: []uint32{2}, Disliked: []uint32{4}},
			},
		},
	}
	srv := NewServer(src, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Long-poll body, uncompressed.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/job?worker=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status %d, want 200", resp.StatusCode)
	}
	longPoll, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Socket push frame for the same job.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
		t.Fatal(err)
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(frame, longPoll) {
		t.Fatalf("socket frame differs from long-poll body:\n ws: %s\n lp: %s", frame, longPoll)
	}
	generic, err := wire.EncodeJob(src.job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, generic) {
		t.Fatalf("socket frame differs from wire.EncodeJob form:\n ws: %s\n std: %s", frame, generic)
	}
}

// TestV1WorkerWSEndToEnd drives the full protocol over one socket:
// credit → pushed leased job → widget compute → result frame → user
// refreshed; then a polite abandon via an ack frame; and checks the
// socket gauges on /stats.
func TestV1WorkerWSEndToEnd(t *testing.T) {
	e, ts := newSchedTestServer(t)
	seedRatings(t, e, 2)

	ctx, cancel := context.WithTimeout(tctx, 10*time.Second)
	defer cancel()
	conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Mid-session the gauge reports the live socket. (Poll: the handler
	// bumps the gauge just after the 101 is on the wire.)
	gaugeUp := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if statInt(t, ts, "ws_workers") == 1 {
			gaugeUp = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !gaugeUp {
		t.Fatal("ws_workers gauge never reported the open socket")
	}

	// Job 1: compute and fold back.
	if err := conn.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
		t.Fatal(err)
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(frame)
	if err != nil {
		t.Fatalf("push frame did not decode as a job: %v (%s)", err, frame)
	}
	if job.Lease == 0 {
		t.Fatalf("pushed job carries no lease: %+v", job)
	}
	res, _ := widget.New().Execute(job)
	raw, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{Want: 1, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ws.OpText, raw); err != nil {
		t.Fatal(err)
	}

	// Job 2: abandon politely over the socket.
	_, frame, err = conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	job2, err := wire.DecodeJob(frame)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = wire.EncodeWSClientMsg(&wire.WSClientMsg{
		Ack: &wire.AckRequest{Lease: job2.Lease, Done: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ws.OpText, raw); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Scheduler().Stats().Abandoned > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := e.Scheduler().Stats()
	if st.Abandoned == 0 {
		t.Fatalf("ack frame never abandoned the lease: %+v", st)
	}
	if st.Dispatched < 2 {
		t.Fatalf("scheduler dispatched %d jobs over the socket, want >= 2", st.Dispatched)
	}
	if n := statInt(t, ts, "ws_jobs_pushed_total"); n < 2 {
		t.Fatalf("ws_jobs_pushed_total = %d, want >= 2", n)
	}

	// Clean goodbye.
	conn.WriteClose(ws.CloseNormal, "done")
	conn.Close()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if statInt(t, ts, "ws_workers") == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ws_workers still %d after close", statInt(t, ts, "ws_workers"))
}

// TestV1WorkerWSBadMessageAnswersErrorFrame: malformed worker frames get
// an ErrorEnvelope frame back and do not kill the session.
func TestV1WorkerWSBadMessageAnswersErrorFrame(t *testing.T) {
	_, ts := newSchedTestServer(t)
	ctx, cancel := context.WithTimeout(tctx, 5*time.Second)
	defer cancel()
	conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.WriteMessage(ws.OpText, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsWSError(frame) {
		t.Fatalf("expected error frame, got %s", frame)
	}
	env, err := wire.DecodeWSError(frame)
	if err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != wire.CodeBadRequest {
		t.Fatalf("error code %q, want %q", env.Error.Code, wire.CodeBadRequest)
	}

	// The session survived: a well-formed ack for an unknown lease still
	// gets a typed error answer on the same connection.
	if err := conn.WriteMessage(ws.OpText, []byte(`{"ack":{"lease":12345,"done":true}}`)); err != nil {
		t.Fatal(err)
	}
	_, frame, err = conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsWSError(frame) {
		t.Fatalf("expected unknown-lease error frame, got %s", frame)
	}
}

// TestV1WorkerWSServerCloseReleasesSocket: Close() on the HTTP server
// ends idle worker sockets promptly with a going-away close.
func TestV1WorkerWSServerCloseReleasesSocket(t *testing.T) {
	e := NewEngine(schedConfig())
	defer e.Close()
	srv := NewServer(e, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(tctx, 5*time.Second)
	defer cancel()
	conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Credit granted, but no work will ever arrive: the session parks in
	// the dispatch window.
	if err := conn.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := conn.ReadMessage()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned a frame after server close, want close error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker socket not released by server Close")
	}
}

// statInt fetches one integer counter from GET /stats.
func statInt(t *testing.T, ts *httptest.Server, key string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	v, ok := m[key]
	if !ok {
		t.Fatalf("/stats has no %q: %v", key, m)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("/stats %q is %T, want number", key, v)
	}
	return int64(f)
}
