package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// newFrameServer starts an engine-backed server with a framed listener
// on a loopback port and returns the engine, the server, and the
// listener address.
func newFrameServer(t *testing.T, cfg Config, secret string) (*Engine, *HTTPServer, string) {
	t.Helper()
	e := NewEngine(cfg)
	srv := NewServer(e, 0)
	if secret != "" {
		srv.RequireNodeSecret(secret)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv, ln.Addr().String()
}

// dialFrame opens a framed connection and completes the handshake.
func dialFrame(t *testing.T, addr, secret string) *frame.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cn := frame.NewConn(c, 0)
	t.Cleanup(func() { cn.Close() })
	if err := cn.WriteFrame(frame.THello, 1, frame.AppendHello(nil, secret, false)); err != nil {
		t.Fatal(err)
	}
	f, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frame.THelloOK {
		t.Fatalf("handshake answered %#x, want THelloOK", byte(f.Type))
	}
	return cn
}

// call sends one request frame and reads one response frame, copying
// the payload out of the connection's read buffer.
func frameCall(t *testing.T, cn *frame.Conn, ft frame.Type, stream uint64, payload []byte) frame.Frame {
	t.Helper()
	if err := cn.WriteFrame(ft, stream, payload); err != nil {
		t.Fatal(err)
	}
	f, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return f
}

// fixedOrderSampler returns a deterministic candidate list so two job
// fetches assemble byte-identical payloads.
type fixedOrderSampler struct{ users []core.UserID }

func (s fixedOrderSampler) Sample(u core.UserID, _ int) []core.UserID {
	var out []core.UserID
	for _, c := range s.users {
		if c != u {
			out = append(out, c)
		}
	}
	return out
}

func TestFrameRateBatch(t *testing.T) {
	e, _, addr := newFrameServer(t, testConfig(), "")
	cn := dialFrame(t, addr, "")

	ratings := []core.Rating{
		{User: 1, Item: 5, Liked: true},
		{User: 1, Item: 6, Liked: true},
		{User: 2, Item: 5, Liked: true},
	}
	f := frameCall(t, cn, frame.TRateBatch, 3, frame.AppendRateBatch(nil, ratings))
	if f.Type != frame.TRateOK {
		t.Fatalf("rate batch answered %#x: %s", byte(f.Type), f.Payload)
	}
	if f.Stream != 3 {
		t.Fatalf("response on stream %d, want 3", f.Stream)
	}
	n, err := frame.DecodeUint(f.Payload)
	if err != nil || n != uint64(len(ratings)) {
		t.Fatalf("TRateOK count = %d, %v; want %d", n, err, len(ratings))
	}
	for _, u := range []core.UserID{1, 2} {
		if !e.KnownUser(u) {
			t.Fatalf("user %d unknown after framed rate batch", u)
		}
	}
}

// TestFrameJobByteEquivalence pins the acceptance criterion: the framed
// TJobGet payload is byte-for-byte the JSON the HTTP GET /v1/job path
// serves for the same user.
func TestFrameJobByteEquivalence(t *testing.T) {
	e, srv, addr := newFrameServer(t, testConfig(), "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Pin candidate order: the default sampler draws random candidates
	// per call, so byte-comparing two fetches needs a fixed sampler.
	e.SetSampler(fixedOrderSampler{users: []core.UserID{1, 2, 3}})
	for u := core.UserID(1); u <= 3; u++ {
		if err := e.Rate(tctx, u, core.ItemID(u%3), true); err != nil {
			t.Fatal(err)
		}
		if err := e.Rate(tctx, u, 7, true); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/job?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	httpBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP job status %d: %s", resp.StatusCode, httpBody)
	}

	cn := dialFrame(t, addr, "")
	f := frameCall(t, cn, frame.TJobGet, 5, frame.AppendUID(nil, 1))
	if f.Type != frame.TJob {
		t.Fatalf("job get answered %#x: %s", byte(f.Type), f.Payload)
	}
	if string(f.Payload) != string(httpBody) {
		t.Fatalf("framed job payload diverges from HTTP:\nframed: %s\nhttp:   %s", f.Payload, httpBody)
	}
}

// TestFrameWorkerFlow drives the full worker protocol over one framed
// connection: rate → TJobPull → execute → TResult → TAckBatch, ending
// with a drained queue.
func TestFrameWorkerFlow(t *testing.T) {
	e, _, addr := newFrameServer(t, schedConfig(), "")
	seedRatings(t, e, 4)
	cn := dialFrame(t, addr, "")

	w := widget.New()
	drained := false
	for i := uint64(0); i < 40 && !drained; i++ {
		f := frameCall(t, cn, frame.TJobPull, 2*i+1, frame.AppendUint(nil, 100))
		if f.Type != frame.TJob {
			t.Fatalf("job pull answered %#x: %s", byte(f.Type), f.Payload)
		}
		if len(f.Payload) == 0 {
			drained = true
			break
		}
		job, err := wire.DecodeJob(f.Payload)
		if err != nil {
			t.Fatalf("framed job payload is not a job: %v", err)
		}
		if job.Lease == 0 {
			t.Fatalf("framed worker job without lease: %+v", job)
		}
		res, _ := w.Execute(job)
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		rf := frameCall(t, cn, frame.TResult, 2*i+2, raw)
		if rf.Type != frame.TRecs {
			t.Fatalf("result answered %#x: %s", byte(rf.Type), rf.Payload)
		}
	}
	if !drained {
		t.Fatal("queue never drained over the framed transport")
	}
	if !e.Scheduler().Quiet() {
		t.Fatalf("scheduler not quiet: %+v", e.Scheduler().Stats())
	}
}

func TestFrameJobPullIdleAnswersEmpty(t *testing.T) {
	_, _, addr := newFrameServer(t, schedConfig(), "")
	cn := dialFrame(t, addr, "")
	start := time.Now()
	f := frameCall(t, cn, frame.TJobPull, 9, frame.AppendUint(nil, 80))
	if f.Type != frame.TJob || len(f.Payload) != 0 {
		t.Fatalf("idle pull answered %#x with %d bytes, want empty TJob", byte(f.Type), len(f.Payload))
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("idle pull returned after %v, should have long-polled ~80ms", elapsed)
	}
}

// TestFrameMultiplexing parks a long job pull on one stream and proves
// a rate batch on another stream overtakes it — the multiplexing the
// transport exists for — then checks the rate batch's new job wakes the
// parked pull.
func TestFrameMultiplexing(t *testing.T) {
	_, _, addr := newFrameServer(t, schedConfig(), "")
	cn := dialFrame(t, addr, "")

	if err := cn.WriteFrame(frame.TJobPull, 11, frame.AppendUint(nil, 5000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the pull park
	ratings := []core.Rating{{User: 1, Item: 1, Liked: true}, {User: 2, Item: 1, Liked: true}}
	if err := cn.WriteFrame(frame.TRateBatch, 12, frame.AppendRateBatch(nil, ratings)); err != nil {
		t.Fatal(err)
	}

	f1, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f1.Stream != 12 || f1.Type != frame.TRateOK {
		t.Fatalf("first response is stream %d type %#x, want the rate batch overtaking the parked pull", f1.Stream, byte(f1.Type))
	}
	f2, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Stream != 11 || f2.Type != frame.TJob || len(f2.Payload) == 0 {
		t.Fatalf("parked pull answered stream %d type %#x (%d bytes), want a woken TJob", f2.Stream, byte(f2.Type), len(f2.Payload))
	}
}

func TestFrameAckSemantics(t *testing.T) {
	e, _, addr := newFrameServer(t, schedConfig(), "")
	seedRatings(t, e, 2)
	cn := dialFrame(t, addr, "")

	// Single-entry batch with a bogus lease keeps the typed error.
	f := frameCall(t, cn, frame.TAckBatch, 21, frame.AppendAckBatch(nil, []frame.Ack{{Lease: 999999, Done: true}}))
	if f.Type != frame.TError {
		t.Fatalf("bogus single ack answered %#x, want TError", byte(f.Type))
	}
	code, _, _, _, err := frame.DecodeError(f.Payload)
	if err != nil || code != wire.CodeUnknownLease {
		t.Fatalf("bogus single ack code = %q, %v; want %q", code, err, wire.CodeUnknownLease)
	}

	// Multi-entry batch reports applied count; a real lease applies, the
	// bogus one is skipped turbulence.
	job, err := e.TryNextJob()
	if err != nil || job == nil {
		t.Fatalf("no job to lease: %v", err)
	}
	acks := []frame.Ack{{Lease: job.Lease, Done: false}, {Lease: 999999, Done: true}}
	f = frameCall(t, cn, frame.TAckBatch, 22, frame.AppendAckBatch(nil, acks))
	if f.Type != frame.TAckOK {
		t.Fatalf("multi ack answered %#x: %s", byte(f.Type), f.Payload)
	}
	if n, err := frame.DecodeUint(f.Payload); err != nil || n != 1 {
		t.Fatalf("multi ack applied = %d, %v; want 1", n, err)
	}
}

// TestFrameReplGating proves the trust model: the replication lane
// answers forbidden without the node-plane secret, while client lanes
// on the same connection stay usable; with the secret the gate opens
// (the plain engine then rejects replication as unsupported, which is
// the post-gate answer).
func TestFrameReplGating(t *testing.T) {
	_, _, addr := newFrameServer(t, testConfig(), "s3cret")
	batch := frame.AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Partition: 0, Seq: 1})

	cn := dialFrame(t, addr, "wrong")
	f := frameCall(t, cn, frame.TReplBatch, 31, batch)
	if f.Type != frame.TError {
		t.Fatalf("unauthorized replicate answered %#x", byte(f.Type))
	}
	if code, _, _, _, _ := frame.DecodeError(f.Payload); code != wire.CodeForbidden {
		t.Fatalf("unauthorized replicate code = %q, want %q", code, wire.CodeForbidden)
	}
	// The same connection still serves the client lanes.
	f = frameCall(t, cn, frame.TRateBatch, 32, frame.AppendRateBatch(nil, []core.Rating{{User: 1, Item: 1, Liked: true}}))
	if f.Type != frame.TRateOK {
		t.Fatalf("client lane after forbidden replicate answered %#x", byte(f.Type))
	}

	cn2 := dialFrame(t, addr, "s3cret")
	f = frameCall(t, cn2, frame.TReplBatch, 33, batch)
	if f.Type != frame.TError {
		t.Fatalf("authorized replicate answered %#x", byte(f.Type))
	}
	if code, _, _, _, _ := frame.DecodeError(f.Payload); code != wire.CodeBadRequest {
		t.Fatalf("authorized replicate on a plain engine code = %q, want %q (past the gate)", code, wire.CodeBadRequest)
	}
}

func TestFrameHandshakeRequired(t *testing.T) {
	_, _, addr := newFrameServer(t, testConfig(), "")
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cn := frame.NewConn(c, 0)
	defer cn.Close()
	// First frame is not THello: the server drops the connection.
	if err := cn.WriteFrame(frame.TRateBatch, 1, frame.AppendRateBatch(nil, nil)); err != nil {
		t.Fatal(err)
	}
	cn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cn.ReadFrame(); err == nil {
		t.Fatal("server answered a pre-handshake request frame")
	}
}

func TestFrameHandshakeVersionMismatch(t *testing.T) {
	_, _, addr := newFrameServer(t, testConfig(), "")
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cn := frame.NewConn(c, 0)
	defer cn.Close()
	hello := append([]byte(frame.Magic), 99) // future version
	hello = binary.AppendUvarint(hello, 0)
	if err := cn.WriteFrame(frame.THello, 1, hello); err != nil {
		t.Fatal(err)
	}
	cn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frame.TError {
		t.Fatalf("version mismatch answered %#x, want TError", byte(f.Type))
	}
	if code, _, _, _, _ := frame.DecodeError(f.Payload); code != wire.CodeBadRequest {
		t.Fatalf("version mismatch code = %q", code)
	}
	if _, err := cn.ReadFrame(); err == nil {
		t.Fatal("connection survived a version mismatch")
	}
}

func TestFrameUnknownTypeAnswersError(t *testing.T) {
	_, _, addr := newFrameServer(t, testConfig(), "")
	cn := dialFrame(t, addr, "")
	f := frameCall(t, cn, frame.Type(0x7f), 41, nil)
	if f.Type != frame.TError {
		t.Fatalf("unknown frame type answered %#x, want TError", byte(f.Type))
	}
	if code, _, _, _, _ := frame.DecodeError(f.Payload); code != wire.CodeBadRequest {
		t.Fatalf("unknown frame type code = %q", code)
	}
}

// TestFrameStatsGauges checks the framed plane shows up on /stats:
// connection gauge up while connected, byte meter counting both
// directions, and back down after close.
func TestFrameStatsGauges(t *testing.T) {
	_, srv, addr := newFrameServer(t, testConfig(), "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readStats := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cn := dialFrame(t, addr, "")
	f := frameCall(t, cn, frame.TRateBatch, 51, frame.AppendRateBatch(nil, []core.Rating{{User: 1, Item: 1, Liked: true}}))
	if f.Type != frame.TRateOK {
		t.Fatalf("rate batch answered %#x", byte(f.Type))
	}
	m := readStats()
	if m["frame_conns"] != 1 {
		t.Fatalf("frame_conns = %v with one framed connection", m["frame_conns"])
	}
	if m["frame_bytes_total"] <= 0 {
		t.Fatalf("frame_bytes_total = %v after an exchange", m["frame_bytes_total"])
	}

	cn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if readStats()["frame_conns"] == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("frame_conns stuck at %v after close", readStats()["frame_conns"])
}

// TestFrameCloseReleasesParkedPull pins the shutdown discipline: Close
// must release a parked framed long-poll instead of waiting out its
// window.
func TestFrameCloseReleasesParkedPull(t *testing.T) {
	_, srv, addr := newFrameServer(t, schedConfig(), "")
	cn := dialFrame(t, addr, "")
	if err := cn.WriteFrame(frame.TJobPull, 61, frame.AppendUint(nil, 20000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := cn.ReadFrame()
		done <- err
	}()
	srv.Close()
	select {
	case err := <-done:
		// Either an empty TJob before teardown or a closed connection is
		// fine; hanging is not.
		if err == nil {
			if _, err2 := cn.ReadFrame(); err2 == nil {
				t.Fatal("connection still open after server close")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked framed pull not released by Close")
	}
}

// TestFrameCloseWaitsForHandlers: when Close returns, every framed
// connection is closed and every goroutine that served one has
// returned — the handler of a connection still in its handshake, of
// idle ones, and a parked job pull — so no request can land on a
// server its owner has shut down. Read off the server's own
// bookkeeping, with no waiting: the gauges the handlers decrement on
// their way out, and the set Close closes.
func TestFrameCloseWaitsForHandlers(t *testing.T) {
	_, srv, addr := newFrameServer(t, schedConfig(), "")
	// Accepted first (the listener's queue is FIFO), so tracked by the
	// time the connections dialled after it have answered.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	conns := []*frame.Conn{dialFrame(t, addr, ""), dialFrame(t, addr, ""), dialFrame(t, addr, "")}
	// Park a pull on the first (the queue is empty, so it waits), then
	// cross every connection's read loop with a frame it answers inline:
	// each handler is past its handshake and the pull is dispatched.
	if err := conns[0].WriteFrame(frame.TJobPull, 3, frame.AppendUint(nil, 60000)); err != nil {
		t.Fatal(err)
	}
	for i, cn := range conns {
		if f := frameCall(t, cn, frame.Type(0x7f), 5, nil); f.Type != frame.TError {
			t.Fatalf("conn %d: barrier answered %#x, want TError", i, byte(f.Type))
		}
	}
	if got := srv.frameConns.Load(); got != 3 {
		t.Fatalf("frame_conns = %d before Close, want 3", got)
	}
	if got := srv.frameStreams.Load(); got != 1 {
		t.Fatalf("parked pulls = %d before Close, want 1", got)
	}

	srv.Close()
	if got := srv.frameConns.Load(); got != 0 {
		t.Errorf("frame_conns = %d when Close returned: handlers still running", got)
	}
	if got := srv.frameStreams.Load(); got != 0 {
		t.Errorf("parked pulls = %d when Close returned", got)
	}
	srv.frameMu.Lock()
	live := len(srv.frameLive)
	srv.frameMu.Unlock()
	if live != 0 {
		t.Errorf("%d framed listeners or connections still open when Close returned", live)
	}
	// Every socket is closed from the server's end: the handshake-stage
	// one reads EOF, the others fail their next read.
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Error("connection in its handshake still open after Close")
	}
	for i, cn := range conns[1:] {
		if _, err := cn.ReadFrame(); err == nil {
			t.Errorf("conn %d still open after Close", i+1)
		}
	}
	// A listener handed over after Close is refused and closed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeFrames(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ServeFrames after Close = %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener handed over after Close was left open")
	}
}

// TestFrameOversizedFrameDropsConn proves a frame claiming an absurd
// payload length kills the connection instead of allocating.
func TestFrameOversizedFrameDropsConn(t *testing.T) {
	_, _, addr := newFrameServer(t, testConfig(), "")
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw := []byte{byte(frame.THello)}
	raw = binary.AppendUvarint(raw, 1)
	raw = binary.AppendUvarint(raw, uint64(frame.MaxPayload)+1)
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := c.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read after oversized claim = %v, want EOF", err)
	}
}
