package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// wsPingEvery is the keepalive cadence on worker sockets: the server
// pings, the worker's transport pongs, and a socket that stops pumping
// frames is torn down by the peer's read failing. Variable for tests.
var wsPingEvery = 20 * time.Second

// wsWriteGrace bounds every server→worker write: a worker that stops
// draining its socket fails the push (or the keepalive ping) within
// this window instead of wedging the session goroutines, so the lease
// it was holding expires and is reissued. Variable for tests.
var wsWriteGrace = 30 * time.Second

// handleV1WorkerWS serves GET /v1/worker/ws: the push-capable worker
// transport. One upgraded connection carries the whole worker protocol —
// the server pushes leased jobs (one per credit the worker granted,
// byte-identical payloads to the long-poll path), the worker streams
// back results and acks, and ping/pong keepalive polices liveness. The
// long-poll /v1/job?worker=1 endpoint remains the compatibility surface
// for clients that cannot hold a socket.
func (s *HTTPServer) handleV1WorkerWS(w http.ResponseWriter, r *http.Request) {
	conn, err := ws.Upgrade(w, r, wire.MaxBodyBytes)
	if err != nil {
		// Upgrade already answered the request.
		return
	}
	conn.SetWriteGrace(wsWriteGrace)
	s.wsWorkers.Add(1)
	defer s.wsWorkers.Add(-1)
	defer conn.Close()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// Server shutdown (Close) releases the session immediately.
	stop := context.AfterFunc(s.dispatchCtx, cancel)
	defer stop()

	sess := &wsSession{wake: make(chan struct{}, 1)}

	// Reader: credits, results and acks flow in until the worker closes
	// (or the socket dies), which ends the session.
	go func() {
		defer cancel()
		s.readWorkerSocket(ctx, conn, sess)
	}()
	// Keepalive pinger.
	go func() {
		ticker := time.NewTicker(wsPingEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := conn.WritePing(nil); err != nil {
					cancel()
					return
				}
			}
		}
	}()

	// Push loop: one leased job per credit, until the session ends (no
	// credit, or no job before ctx was done), dispatch fails, or a push
	// cannot be written.
	push := func(payload []byte) error { return conn.WriteMessage(ws.OpBinary, payload) }
	for sess.take(ctx) {
		leased, err := s.dispatchJob(ctx, push)
		if err != nil && !leased {
			s.wsSendError(conn, err)
		}
		if err != nil || !leased {
			break
		}
		s.wsJobsPushed.Add(1)
	}
	// Graceful goodbye for the cases where the session ended server-side
	// (shutdown, dispatch error); a no-op if the worker closed first.
	conn.WriteClose(ws.CloseGoingAway, "")
}

// readWorkerSocket drains worker→server messages until the socket ends.
func (s *HTTPServer) readWorkerSocket(ctx context.Context, conn *ws.Conn, sess *wsSession) {
	for {
		_, frame, err := conn.ReadMessage()
		if err != nil {
			return
		}
		msg, err := wire.DecodeWSClientMsg(frame)
		if err != nil {
			s.wsSendErrorCode(conn, wire.CodeBadRequest, err.Error())
			continue
		}
		if msg.Want > 0 {
			sess.grant(msg.Want)
		}
		if msg.Result != nil {
			if _, err := s.result(ctx, msg.Result); err != nil {
				s.wsSendError(conn, err)
			}
		}
		if msg.Ack != nil {
			if err := s.svc.Ack(ctx, msg.Ack.Lease, msg.Ack.Done); err != nil {
				s.wsSendError(conn, err)
			}
		}
	}
}

// wsSendError pushes a service error to the worker as an ErrorEnvelope
// frame (the socket analogue of a non-2xx response). Transport failures
// are ignored — the session is ending anyway.
func (s *HTTPServer) wsSendError(conn *ws.Conn, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.wsSendErrorCode(conn, errCode(err), err.Error())
}

func (s *HTTPServer) wsSendErrorCode(conn *ws.Conn, code, msg string) {
	env := wire.ErrorEnvelope{Error: wire.ErrorBody{Code: code, Message: msg}}
	raw, err := json.Marshal(env)
	if err != nil {
		return
	}
	conn.WriteMessage(ws.OpText, raw)
}

// wsSession is the per-connection credit ledger: the worker grants
// credits sized to its compute capacity, the push loop spends them.
type wsSession struct {
	mu      sync.Mutex
	credits int
	wake    chan struct{}
}

func (w *wsSession) grant(n int) {
	w.mu.Lock()
	w.credits += n
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// take blocks until one credit is available (true) or the session ends
// (false).
func (w *wsSession) take(ctx context.Context) bool {
	for {
		w.mu.Lock()
		if w.credits > 0 {
			w.credits--
			w.mu.Unlock()
			return true
		}
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-w.wake:
		}
	}
}
