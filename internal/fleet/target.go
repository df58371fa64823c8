package fleet

import (
	"context"
	"errors"
	"net"
	"time"

	"hyrec/internal/server"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// ---- in-process target ----

// ServiceTarget drives the fleet straight at an in-process deployment
// (an *server.Engine or a cluster) through the struct-form worker
// surfaces (JobSource, LeaseAcker), so a simulated session exercises
// the real scheduler minus the network and the payload encode.
type ServiceTarget struct {
	svc server.Service
	js  server.JobSource
	la  server.LeaseAcker
}

// NewServiceTarget wraps svc; it must dispatch jobs (JobSource).
func NewServiceTarget(svc server.Service) (*ServiceTarget, error) {
	js, ok := svc.(server.JobSource)
	if !ok {
		return nil, errors.New("fleet: service does not dispatch jobs to workers")
	}
	t := &ServiceTarget{svc: svc, js: js}
	t.la, _ = svc.(server.LeaseAcker)
	return t, nil
}

// Open implements Target. In-process sessions share the service; a
// "connection" has no per-session state to set up.
func (t *ServiceTarget) Open(ctx context.Context, s SessionPlan) (Session, error) {
	return (*svcSession)(t), nil
}

type svcSession ServiceTarget

func (s *svcSession) NextJob(ctx context.Context) (*wire.Job, error) {
	for {
		job, err := s.js.NextJob(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil // window lapsed, not a session failure
			}
			return nil, err
		}
		if job != nil {
			return job, nil
		}
		// Early nil (scheduler-free service, or a mid-migration wake):
		// re-poll paced for the rest of the window, like the HTTP layer.
		select {
		case <-ctx.Done():
			return nil, nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (s *svcSession) Result(ctx context.Context, res *wire.Result) error {
	_, err := s.svc.ApplyResult(ctx, res)
	return err
}

func (s *svcSession) Ack(ctx context.Context, lease uint64, done bool) error {
	if s.la == nil {
		return errors.New("fleet: service does not manage leases")
	}
	return s.la.Ack(ctx, lease, done)
}

func (s *svcSession) Close() error { return nil }

// ---- WebSocket target ----

// WSTarget opens one real WebSocket per session against a live server's
// GET /v1/worker/ws endpoint — the browser-true path: handshake, credit
// grants, pushed job frames, result/ack frames, ping/pong.
type WSTarget struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
}

// NewWSTarget points the fleet at a live server.
func NewWSTarget(baseURL string) *WSTarget { return &WSTarget{BaseURL: baseURL} }

// Open implements Target: dial and upgrade one worker socket.
func (t *WSTarget) Open(ctx context.Context, s SessionPlan) (Session, error) {
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	conn, err := ws.Dial(dctx, t.BaseURL+wire.WSWorkerPath, 0)
	if err != nil {
		return nil, err
	}
	return &wsFleetSession{conn: conn}, nil
}

// wsFleetSession adapts the credit-push socket protocol to the pull-
// style Session interface: NextJob grants one credit (if none is
// outstanding) and waits for the push.
type wsFleetSession struct {
	conn *ws.Conn
	// creditOut: a granted credit the server has not yet spent on a
	// push. Kept across NextJob windows so credits never accumulate.
	creditOut bool
}

func (s *wsFleetSession) NextJob(ctx context.Context) (*wire.Job, error) {
	if !s.creditOut {
		raw, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{Want: 1})
		if err != nil {
			return nil, err
		}
		if err := s.conn.WriteMessage(ws.OpText, raw); err != nil {
			return nil, err
		}
		s.creditOut = true
	}
	deadline := time.Now().Add(pollWindow)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s.conn.SetReadDeadline(deadline)
	defer s.conn.SetReadDeadline(time.Time{})
	for {
		_, frame, err := s.conn.ReadMessage()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil, nil // window lapsed; the credit stays out
			}
			return nil, err
		}
		if wire.IsWSError(frame) {
			// Scheduler-side rejection of an earlier frame; not ours to
			// fail the session over.
			continue
		}
		job, err := wire.DecodeJob(frame)
		if err != nil {
			return nil, err
		}
		s.creditOut = false
		return job, nil
	}
}

func (s *wsFleetSession) Result(ctx context.Context, res *wire.Result) error {
	raw, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{Result: res})
	if err != nil {
		return err
	}
	return s.conn.WriteMessage(ws.OpText, raw)
}

func (s *wsFleetSession) Ack(ctx context.Context, lease uint64, done bool) error {
	raw, err := wire.EncodeWSClientMsg(&wire.WSClientMsg{
		Ack: &wire.AckRequest{Lease: lease, Done: done},
	})
	if err != nil {
		return err
	}
	return s.conn.WriteMessage(ws.OpText, raw)
}

func (s *wsFleetSession) Close() error {
	// Best-effort polite goodbye; the tab may equally be crashing, and
	// either way any lease in flight is only released by expiry.
	s.conn.WriteClose(ws.CloseGoingAway, "")
	return s.conn.Close()
}
