package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
)

// The framed transport listener: the binary twin of the /v1 JSON
// protocol (see internal/frame). A connection opens with a THello
// handshake — magic, version, the node-plane secret when the peer wants
// the replication lane, and the forwarded flag a node's proxy
// connection sets — then any number of exchanges interleave
// on uvarint streams: the client picks a stream ID per request and the
// server answers on it, so one socket carries many in-flight rate
// batches, job pulls, result posts, batched acks and replication
// shipments with no per-request connection or header cost. Frame
// handlers reuse the exact service surfaces the HTTP handlers do, and
// job and result payloads are the exact bytes the HTTP path carries (job
// format 3, result JSON), so the two transports cannot drift
// semantically.

// frameWriteGrace bounds each socket write on a framed connection, like
// the WS layer's write grace: a peer that stops draining fails its
// connection instead of wedging every response producer. Variable for
// tests.
var frameWriteGrace = 30 * time.Second

// frameHelloTimeout bounds how long a fresh connection may sit without
// completing its handshake before the listener drops it (a
// time.Duration). Atomic so a test can shorten and restore it while
// connection goroutines of the listener it served still read it.
var frameHelloTimeout atomic.Int64

func init() { frameHelloTimeout.Store(int64(10 * time.Second)) }

// maxConnPullStreams bounds parked TJobPull goroutines per connection:
// a framed client issuing thousands of concurrent pull streams on one
// socket gets the overloaded TError past this, instead of pinning a
// goroutine per stream. Variable for tests.
var maxConnPullStreams int64 = 32

// maxServerPullStreams bounds parked TJobPull goroutines across all
// framed connections, the overall backstop behind the per-connection
// cap. Variable for tests.
var maxServerPullStreams int64 = 1024

// ServeFrames accepts framed-transport connections on ln until it
// closes. Close tears the listener and every framed connection down,
// and returns only once each connection's handler has. Run it on its
// own goroutine alongside the HTTP listener:
//
//	go hsrv.ServeFrames(ln)
func (s *HTTPServer) ServeFrames(ln net.Listener) error {
	if !s.trackFrame(ln) {
		return net.ErrClosed
	}
	defer s.untrackFrame(ln)
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		cn := frame.NewConn(c, 0)
		if !s.trackFrame(cn) {
			return net.ErrClosed
		}
		go s.handleFrameConn(cn)
	}
}

// trackFrame registers a framed listener or connection for Close to
// close, and counts the goroutine serving it on frameWG. Once Close has
// run it closes c instead and reports false.
func (s *HTTPServer) trackFrame(c io.Closer) bool {
	s.frameMu.Lock()
	closed := s.frameClosed
	if !closed {
		if s.frameLive == nil {
			s.frameLive = make(map[io.Closer]struct{})
		}
		s.frameLive[c] = struct{}{}
		s.frameWG.Add(1)
	}
	s.frameMu.Unlock()
	if closed {
		c.Close()
	}
	return !closed
}

// untrackFrame is trackFrame's release, deferred by the goroutine that
// served c.
func (s *HTTPServer) untrackFrame(c io.Closer) {
	s.frameMu.Lock()
	delete(s.frameLive, c)
	s.frameMu.Unlock()
	s.frameWG.Done()
}

// closeFrames closes every framed listener and connection and waits
// until the goroutines serving them, parked job pulls included, have
// returned: after it, no framed request is still being served.
func (s *HTTPServer) closeFrames() {
	s.frameMu.Lock()
	s.frameClosed = true
	live := make([]io.Closer, 0, len(s.frameLive))
	for c := range s.frameLive {
		live = append(live, c)
	}
	s.frameMu.Unlock()
	// Nothing joins frameLive once frameClosed is set, so live is all of
	// it; closing outside the lock keeps a slow Close off frameMu.
	for _, c := range live {
		c.Close()
	}
	s.frameWG.Wait()
}

// handleFrameConn runs one framed connection: handshake, then a read
// loop that handles bounded-latency requests inline and parks job
// pulls on their own goroutines so a waiting worker never blocks rate
// batches behind it.
func (s *HTTPServer) handleFrameConn(cn *frame.Conn) {
	defer s.untrackFrame(cn)
	cn.SetMeter(&s.frameBytes)
	cn.SetWriteGrace(frameWriteGrace)
	defer cn.Close()

	authorized, forwarded, err := s.frameHandshake(cn)
	if err != nil {
		return
	}
	s.frameConns.Add(1)
	defer s.frameConns.Add(-1)

	// Request contexts descend from dispatchCtx so Close releases parked
	// long-polls; Close closing the socket unblocks the read loop.
	ctx, cancel := context.WithCancel(s.dispatchCtx)
	defer cancel()
	if forwarded {
		// A node's proxy connection: like ForwardedHeader on HTTP, its
		// requests are answered, never proxied a second time.
		ctx = WithForwarded(ctx)
	}

	scr := frameScratch{authorized: authorized}
	for {
		f, err := cn.ReadFrame()
		if err != nil {
			return
		}
		s.dispatchFrame(ctx, cn, f, &scr)
	}
}

// frameScratch holds per-connection state: whether the handshake
// presented the node-plane secret, and decode buffers reused across
// frames. Reuse is safe because handlers run inline (the next ReadFrame
// cannot start until the handler returns) and the service surfaces copy
// what they keep.
type frameScratch struct {
	authorized bool
	ratings    []core.Rating
	acks       []frame.Ack
	// pulls counts this connection's parked TJobPull goroutines against
	// maxConnPullStreams. Atomic because the parked goroutines decrement
	// it while the read loop checks and increments.
	pulls atomic.Int64
}

// frameHandshake reads and answers the THello frame, reporting whether
// the connection presented the node-plane secret and whether it carries
// node-forwarded requests. Malformed or mistimed handshakes drop the
// connection before any session state is allocated.
func (s *HTTPServer) frameHandshake(cn *frame.Conn) (authorized, forwarded bool, err error) {
	cn.SetReadDeadline(time.Now().Add(time.Duration(frameHelloTimeout.Load())))
	defer cn.SetReadDeadline(time.Time{})
	f, err := cn.ReadFrame()
	if err != nil {
		return false, false, err
	}
	if f.Type != frame.THello {
		return false, false, fmt.Errorf("first frame %#x is not THello", byte(f.Type))
	}
	version, secret, forwarded, err := frame.DecodeHello(f.Payload)
	if err != nil {
		return false, false, err
	}
	if version != frame.Version {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest,
			fmt.Sprintf("framed protocol version %d unsupported (want %d)", version, frame.Version))
		return false, false, errors.New("version mismatch")
	}
	// Like the HTTP plane, a wrong or missing secret does not reject the
	// connection — it leaves the replication lane gated (TReplBatch
	// answers forbidden) while the client lanes stay usable.
	authorized = s.nodeSecret == "" ||
		subtle.ConstantTimeCompare([]byte(secret), []byte(s.nodeSecret)) == 1
	return authorized, forwarded, cn.WriteFrame(frame.THelloOK, f.Stream, []byte{frame.Version})
}

// frameRoute is one request frame type's entry on the framed plane —
// the twin of an HTTP route: its admission class and the handler that
// decodes the payload and answers the stream. A handler that parks
// (TJobPull's long-poll) returns the rest of its work instead, which
// runs on its own goroutine still holding the admission slot.
type frameRoute struct {
	class admit.Class
	serve func(s *HTTPServer, ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) (park func())
}

var frameRoutes = [...]frameRoute{
	frame.TRateBatch: {admit.Rating, (*HTTPServer).frameRateBatch},
	frame.TJobPull:   {admit.Worker, (*HTTPServer).frameJobPullPark},
	frame.TJobGet:    {admit.Read, (*HTTPServer).frameJobGet},
	frame.TResult:    {admit.Worker, (*HTTPServer).frameResult},
	frame.TAckBatch:  {admit.Worker, (*HTTPServer).frameAckBatch},
	frame.TReplBatch: {ungated, (*HTTPServer).frameReplBatch},
}

// dispatchFrame admits and handles one request frame. Handlers run
// inline on the connection's read loop — the framed twin of HTTP/1.1
// pipelining, where the read loop is the natural backpressure point —
// except a parked TJobPull, so a waiting worker never blocks rate
// batches behind it. Inline handling means decode buffers and f.Payload
// (which aliases the connection's read buffer) stay valid for the
// handler's whole run, so the hot paths decode and answer without
// allocating.
func (s *HTTPServer) dispatchFrame(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) {
	var rt frameRoute
	if int(f.Type) < len(frameRoutes) {
		rt = frameRoutes[f.Type]
	}
	if rt.serve == nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest,
			fmt.Sprintf("unexpected frame type %#x", byte(f.Type)))
		return
	}
	release := func() {}
	if rt.class != ungated {
		var admitted bool
		if release, admitted = s.gate.Acquire(ctx, rt.class); !admitted {
			s.sendFrameOverloaded(cn, f.Stream, rt.class.String()+" queue full")
			return
		}
	}
	park := rt.serve(s, ctx, cn, f, scr)
	if park == nil {
		release()
		return
	}
	// The connection's handler is still counted on frameWG, so this Add
	// cannot race Close's Wait past zero.
	s.frameWG.Add(1)
	s.frameStreams.Add(1)
	go func() {
		defer s.frameWG.Done()
		defer s.frameStreams.Add(-1)
		defer release()
		park()
	}()
}

func (s *HTTPServer) frameRateBatch(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) func() {
	ratings, err := frame.DecodeRateBatch(f.Payload, scr.ratings[:0])
	scr.ratings = ratings[:0]
	if err != nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad rate batch: "+err.Error())
		return nil
	}
	if err := s.rateBatch(ctx, ratings); err != nil {
		s.sendFrameError(cn, f.Stream, err)
		return nil
	}
	var ob [10]byte
	cn.WriteFrame(frame.TRateOK, f.Stream, frame.AppendUint(ob[:0], uint64(len(ratings))))
	return nil
}

// frameJobPullPark bounds parked pulls two more ways before one parks:
// per connection and across the server, both shedding with the
// overloaded TError. Only the read loop increments scr.pulls, so the
// check-then-add is race-free for admission.
func (s *HTTPServer) frameJobPullPark(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) func() {
	waitMS, err := frame.DecodeUint(f.Payload)
	switch {
	case err != nil:
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad job pull: "+err.Error())
		return nil
	case scr.pulls.Load() >= maxConnPullStreams:
		s.sendFrameOverloaded(cn, f.Stream, "too many parked job pulls on this connection")
		return nil
	case s.frameStreams.Load() >= maxServerPullStreams:
		s.sendFrameOverloaded(cn, f.Stream, "too many parked job pulls server-wide")
		return nil
	}
	scr.pulls.Add(1)
	stream := f.Stream
	return func() {
		defer scr.pulls.Add(-1)
		s.frameJobPull(ctx, cn, stream, time.Duration(waitMS)*time.Millisecond)
	}
}

// frameJobPull is the framed twin of handleV1WorkerJob: long-poll the
// staleness queue up to wait (capped like the HTTP path) and answer a
// TJob whose payload is the exact bytes GET /v1/job?worker=1 would
// serve — empty when the queue stayed idle.
func (s *HTTPServer) frameJobPull(ctx context.Context, cn *frame.Conn, stream uint64, wait time.Duration) {
	pollCtx, cancel := context.WithTimeout(ctx, min(max(wait, 0), maxWorkerWait))
	defer cancel()
	leased, err := s.dispatchJob(pollCtx, func(payload []byte) error {
		return cn.WriteFrame(frame.TJob, stream, payload)
	})
	switch {
	case leased: // answered, or the connection is gone and the lease given back
	case err != nil:
		s.sendFrameError(cn, stream, err)
	default:
		cn.WriteFrame(frame.TJob, stream, nil)
	}
}

// frameJobGet serves one user's job payload — the framed twin of
// GET /v1/job?uid=U, carrying the identical bytes.
func (s *HTTPServer) frameJobGet(ctx context.Context, cn *frame.Conn, f frame.Frame, _ *frameScratch) func() {
	uid, err := frame.DecodeUID(f.Payload)
	if err != nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad job get: "+err.Error())
		return nil
	}
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	if err := s.job(ctx, core.UserID(uid), bufs, false); err != nil {
		s.sendFrameError(cn, f.Stream, err)
		return nil
	}
	cn.WriteFrame(frame.TJob, f.Stream, bufs.JSON)
	return nil
}

func (s *HTTPServer) frameResult(ctx context.Context, cn *frame.Conn, f frame.Frame, _ *frameScratch) func() {
	res, err := wire.DecodeResult(f.Payload)
	if err != nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad result body: "+err.Error())
		return nil
	}
	recs, err := s.result(ctx, res)
	if err != nil {
		s.sendFrameError(cn, f.Stream, err)
		return nil
	}
	buf := wire.GetBuf()
	out := frame.AppendUint((*buf)[:0], uint64(len(recs)))
	for _, it := range recs {
		out = frame.AppendUID(out, uint32(it))
	}
	*buf = out
	cn.WriteFrame(frame.TRecs, f.Stream, out)
	wire.PutBuf(buf)
	return nil
}

// frameAckBatch applies a batched ack. A single-entry batch keeps the
// HTTP path's typed error surface (unknown_lease and friends); a
// multi-entry batch reports how many entries applied — a missing lease
// there is expected turbulence (the scheduler re-issued it), not an
// error.
func (s *HTTPServer) frameAckBatch(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) func() {
	acks, err := frame.DecodeAckBatch(f.Payload, scr.acks[:0])
	scr.acks = acks[:0]
	if err != nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad ack batch: "+err.Error())
		return nil
	}
	applied := 0
	for _, a := range acks {
		err := s.svc.Ack(ctx, a.Lease, a.Done)
		if err == nil {
			applied++
			continue
		}
		if len(acks) == 1 {
			s.sendFrameError(cn, f.Stream, err)
			return nil
		}
	}
	var ob [10]byte
	cn.WriteFrame(frame.TAckOK, f.Stream, frame.AppendUint(ob[:0], uint64(applied)))
	return nil
}

// frameReplBatch is the framed twin of POST /v1/replicate, gated by the
// handshake's node-plane secret.
func (s *HTTPServer) frameReplBatch(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) func() {
	if !scr.authorized {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeForbidden, "node-plane secret missing or wrong")
		return nil
	}
	segs, err := frame.DecodeReplShipment(f.Payload)
	if err != nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad replicate shipment: "+err.Error())
		return nil
	}
	if s.repl == nil {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "this deployment cannot accept replication")
		return nil
	}
	acks, err := s.repl.ReplicateShipment(ctx, segs)
	if err != nil {
		s.sendFrameError(cn, f.Stream, err)
		return nil
	}
	var ob [128]byte // a few segments' acks fit on the stack
	cn.WriteFrame(frame.TReplOK, f.Stream, frame.AppendReplAcks(ob[:0], acks))
	return nil
}

// sendFrameError answers a stream with the TError envelope for a
// service error — same code mapping as the HTTP plane (errCode),
// including the primary-address hint of not_primary rejections.
func (s *HTTPServer) sendFrameError(cn *frame.Conn, stream uint64, err error) {
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, errCode(err), err.Error(), primaryOf(err), 0))
}

// sendFrameErrorCode answers a stream with an explicit error code.
func (s *HTTPServer) sendFrameErrorCode(cn *frame.Conn, stream uint64, code, msg string) {
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, code, msg, "", 0))
}

// sendFrameOverloaded answers a stream with the typed shed envelope:
// the overloaded code plus the retry-after hint in milliseconds — the
// framed twin of the HTTP plane's 429 + Retry-After.
func (s *HTTPServer) sendFrameOverloaded(cn *frame.Conn, stream uint64, msg string) {
	retryMS := uint64(s.gate.RetryAfter() / time.Millisecond)
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, wire.CodeOverloaded, msg, "", retryMS))
}
