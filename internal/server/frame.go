package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
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
// handshake — magic, version, and the node-plane secret when the peer
// wants the replication lane — then any number of exchanges interleave
// on uvarint streams: the client picks a stream ID per request and the
// server answers on it, so one socket carries many in-flight rate
// batches, job pulls, result posts, batched acks and replication
// shipments with no per-request connection or header cost. Frame
// handlers reuse the exact service surfaces the HTTP handlers do, and
// job/result payloads are the exact JSON bytes the HTTP path carries,
// so the two transports cannot drift semantically.

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
// closes. Close tears the listener and every framed connection down.
// Run it on its own goroutine alongside the HTTP listener:
//
//	go hsrv.ServeFrames(ln)
func (s *HTTPServer) ServeFrames(ln net.Listener) error {
	stop := context.AfterFunc(s.dispatchCtx, func() { ln.Close() })
	defer stop()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.handleFrameConn(c)
	}
}

// handleFrameConn runs one framed connection: handshake, then a read
// loop that handles bounded-latency requests inline and parks job
// pulls on their own goroutines so a waiting worker never blocks rate
// batches behind it.
func (s *HTTPServer) handleFrameConn(c net.Conn) {
	cn := frame.NewConn(c, 0)
	cn.SetMeter(&s.frameBytes)
	cn.SetWriteGrace(frameWriteGrace)
	defer cn.Close()

	authorized, err := s.frameHandshake(cn)
	if err != nil {
		return
	}
	s.frameConns.Add(1)
	defer s.frameConns.Add(-1)

	// Request contexts descend from dispatchCtx so Close releases parked
	// long-polls; closing the socket on Close unblocks the read loop.
	ctx, cancel := context.WithCancel(s.dispatchCtx)
	defer cancel()
	stop := context.AfterFunc(s.dispatchCtx, func() { cn.Close() })
	defer stop()

	var scr frameScratch
	for {
		f, err := cn.ReadFrame()
		if err != nil {
			return
		}
		s.dispatchFrame(ctx, cn, f, authorized, &scr)
	}
}

// frameScratch holds per-connection decode buffers reused across
// frames. Reuse is safe because handlers run inline (the next ReadFrame
// cannot start until the handler returns) and the service surfaces copy
// what they keep.
type frameScratch struct {
	ratings []core.Rating
	acks    []frame.Ack
	// pulls counts this connection's parked TJobPull goroutines against
	// maxConnPullStreams. Atomic because the parked goroutines decrement
	// it while the read loop checks and increments.
	pulls atomic.Int64
}

// frameHandshake reads and answers the THello frame, reporting whether
// the connection presented the node-plane secret. Malformed or
// mistimed handshakes drop the connection before any session state is
// allocated.
func (s *HTTPServer) frameHandshake(cn *frame.Conn) (authorized bool, err error) {
	cn.SetReadDeadline(time.Now().Add(time.Duration(frameHelloTimeout.Load())))
	defer cn.SetReadDeadline(time.Time{})
	f, err := cn.ReadFrame()
	if err != nil {
		return false, err
	}
	if f.Type != frame.THello {
		return false, fmt.Errorf("first frame %#x is not THello", byte(f.Type))
	}
	version, secret, err := frame.DecodeHello(f.Payload)
	if err != nil {
		return false, err
	}
	if version != frame.Version {
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest,
			fmt.Sprintf("framed protocol version %d unsupported (want %d)", version, frame.Version))
		return false, errors.New("version mismatch")
	}
	// Like the HTTP plane, a wrong or missing secret does not reject the
	// connection — it leaves the replication lane gated (TReplBatch
	// answers forbidden) while the client lanes stay usable.
	authorized = s.nodeSecret == "" ||
		subtle.ConstantTimeCompare([]byte(secret), []byte(s.nodeSecret)) == 1
	return authorized, cn.WriteFrame(frame.THelloOK, f.Stream, []byte{frame.Version})
}

// dispatchFrame decodes and handles one request frame. Handlers run
// inline on the connection's read loop — the framed twin of HTTP/1.1
// pipelining, where the read loop is the natural backpressure point —
// except TJobPull, which parks for its long-poll window on its own
// goroutine so a waiting worker never blocks rate batches behind it.
// Inline handling means decode buffers and f.Payload (which aliases the
// connection's read buffer) stay valid for the handler's whole run, so
// the hot paths decode and answer without allocating.
func (s *HTTPServer) dispatchFrame(ctx context.Context, cn *frame.Conn, f frame.Frame, authorized bool, scr *frameScratch) {
	switch f.Type {
	case frame.TRateBatch:
		release, admitted := s.admitFrame(ctx, cn, f.Stream, admit.Rating)
		if !admitted {
			return
		}
		defer release()
		ratings, err := frame.DecodeRateBatch(f.Payload, scr.ratings[:0])
		scr.ratings = ratings[:0]
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad rate batch: "+err.Error())
			return
		}
		for _, r := range ratings {
			s.seen.Touch(r.User)
		}
		if err := s.svc.RateBatch(ctx, ratings); err != nil {
			s.sendFrameError(cn, f.Stream, err)
			return
		}
		var ob [10]byte
		cn.WriteFrame(frame.TRateOK, f.Stream, frame.AppendUint(ob[:0], uint64(len(ratings))))
	case frame.TJobPull:
		waitMS, err := frame.DecodeUint(f.Payload)
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad job pull: "+err.Error())
			return
		}
		// Parked pulls are bounded three ways before a goroutine spawns:
		// per connection, across the server, and by the worker admission
		// class (a parked pull holds its worker slot for the whole park,
		// like the HTTP long-poll). All three shed with the overloaded
		// TError. Only this read loop increments scr.pulls, so the
		// check-then-add is race-free for admission.
		if scr.pulls.Load() >= maxConnPullStreams {
			s.sendFrameOverloaded(cn, f.Stream, "too many parked job pulls on this connection")
			return
		}
		if s.frameStreams.Load() >= maxServerPullStreams {
			s.sendFrameOverloaded(cn, f.Stream, "too many parked job pulls server-wide")
			return
		}
		release, admitted := s.admitFrame(ctx, cn, f.Stream, admit.Worker)
		if !admitted {
			return
		}
		scr.pulls.Add(1)
		s.spawnFrame(cn, f.Stream, func(stream uint64) {
			defer release()
			defer scr.pulls.Add(-1)
			s.frameJobPull(ctx, cn, stream, time.Duration(waitMS)*time.Millisecond)
		})
	case frame.TJobGet:
		uid, err := frame.DecodeUID(f.Payload)
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad job get: "+err.Error())
			return
		}
		release, admitted := s.admitFrame(ctx, cn, f.Stream, admit.Read)
		if !admitted {
			return
		}
		defer release()
		s.frameJobGet(ctx, cn, f.Stream, core.UserID(uid))
	case frame.TResult:
		release, admitted := s.admitFrame(ctx, cn, f.Stream, admit.Worker)
		if !admitted {
			return
		}
		defer release()
		res, err := wire.DecodeResult(f.Payload)
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad result body: "+err.Error())
			return
		}
		recs, err := s.svc.ApplyResult(ctx, res)
		if err != nil {
			s.sendFrameError(cn, f.Stream, err)
			return
		}
		s.touchResult(res)
		buf := wire.GetBuf()
		out := frame.AppendUint((*buf)[:0], uint64(len(recs)))
		for _, it := range recs {
			out = frame.AppendUID(out, uint32(it))
		}
		*buf = out
		cn.WriteFrame(frame.TRecs, f.Stream, out)
		wire.PutBuf(buf)
	case frame.TAckBatch:
		release, admitted := s.admitFrame(ctx, cn, f.Stream, admit.Worker)
		if !admitted {
			return
		}
		defer release()
		acks, err := frame.DecodeAckBatch(f.Payload, scr.acks[:0])
		scr.acks = acks[:0]
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad ack batch: "+err.Error())
			return
		}
		s.frameAckBatch(ctx, cn, f.Stream, acks)
	case frame.TReplBatch:
		if s.nodeSecret != "" && !authorized {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeForbidden, "node-plane secret missing or wrong")
			return
		}
		batch, err := frame.DecodeReplBatch(f.Payload)
		if err != nil {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "bad replicate batch: "+err.Error())
			return
		}
		rep, ok := s.svc.(Replicator)
		if !ok {
			s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest, "service does not accept replication")
			return
		}
		ack, err := rep.Replicate(ctx, batch)
		if err != nil {
			s.sendFrameError(cn, f.Stream, err)
			return
		}
		var ob [21]byte
		out := frame.AppendUint(ob[:0], uint64(ack.Applied))
		out = frame.AppendUint(out, ack.Seq)
		if ack.Gap {
			out = append(out, 1) // optional trailing byte: absent on every in-sequence ack
		}
		cn.WriteFrame(frame.TReplOK, f.Stream, out)
	default:
		s.sendFrameErrorCode(cn, f.Stream, wire.CodeBadRequest,
			fmt.Sprintf("unexpected frame type %#x", byte(f.Type)))
	}
}

// spawnFrame runs one long-poll handler on its own goroutine, tracked
// by the frame_streams_active gauge.
func (s *HTTPServer) spawnFrame(cn *frame.Conn, stream uint64, fn func(stream uint64)) {
	s.frameStreams.Add(1)
	go func() {
		defer s.frameStreams.Add(-1)
		fn(stream)
	}()
}

// frameJobPull is the framed twin of handleV1WorkerJob: long-poll the
// staleness queue up to wait (capped like the HTTP path) and answer a
// TJob whose payload is the exact JSON bytes GET /v1/job?worker=1 would
// serve — empty when the queue stayed idle.
func (s *HTTPServer) frameJobPull(ctx context.Context, cn *frame.Conn, stream uint64, wait time.Duration) {
	js, ok := s.svc.(JobSource)
	if !ok {
		s.sendFrameErrorCode(cn, stream, wire.CodeBadRequest, "service does not dispatch jobs to workers")
		return
	}
	if wait < 0 {
		wait = 0
	}
	if wait > maxWorkerWait {
		wait = maxWorkerWait
	}
	pollCtx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	leased, err := s.dispatchJob(pollCtx, js, false, func(payload []byte) error {
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
// GET /v1/job?uid=U, carrying the identical JSON bytes.
func (s *HTTPServer) frameJobGet(ctx context.Context, cn *frame.Conn, stream uint64, u core.UserID) {
	s.seen.Touch(u)
	if ja, ok := s.svc.(JSONJobAppender); ok {
		bufs := wire.GetPayloadBufs()
		defer wire.PutPayloadBufs(bufs)
		jsonBody, err := ja.AppendJobJSON(ctx, u, bufs.JSON)
		if err != nil {
			s.sendFrameError(cn, stream, err)
			return
		}
		bufs.JSON = jsonBody
		cn.WriteFrame(frame.TJob, stream, jsonBody)
		return
	}
	if pa, ok := s.svc.(PayloadAppender); ok {
		bufs := wire.GetPayloadBufs()
		defer wire.PutPayloadBufs(bufs)
		jsonBody, gzBody, err := pa.AppendJobPayload(ctx, u, bufs.JSON, bufs.Gz)
		if err != nil {
			s.sendFrameError(cn, stream, err)
			return
		}
		bufs.JSON, bufs.Gz = jsonBody, gzBody
		cn.WriteFrame(frame.TJob, stream, jsonBody)
		return
	}
	raw, err := s.jobJSON(ctx, u)
	if err != nil {
		s.sendFrameError(cn, stream, err)
		return
	}
	cn.WriteFrame(frame.TJob, stream, raw)
}

// frameAckBatch applies a batched ack. A single-entry batch keeps the
// HTTP path's typed error surface (unknown_lease and friends); a
// multi-entry batch reports how many entries applied — a missing lease
// there is expected turbulence (the scheduler re-issued it), not an
// error.
func (s *HTTPServer) frameAckBatch(ctx context.Context, cn *frame.Conn, stream uint64, acks []frame.Ack) {
	la, ok := s.svc.(LeaseAcker)
	if !ok {
		s.sendFrameErrorCode(cn, stream, wire.CodeBadRequest, "service does not manage leases")
		return
	}
	applied := 0
	for _, a := range acks {
		err := la.Ack(ctx, a.Lease, a.Done)
		if err == nil {
			applied++
			continue
		}
		if len(acks) == 1 {
			s.sendFrameError(cn, stream, err)
			return
		}
	}
	var ob [10]byte
	cn.WriteFrame(frame.TAckOK, stream, frame.AppendUint(ob[:0], uint64(applied)))
}

// sendFrameError answers a stream with the TError envelope for a
// service error — same code mapping as the HTTP plane (statusForErr),
// including the primary-address hint of not_primary rejections.
func (s *HTTPServer) sendFrameError(cn *frame.Conn, stream uint64, err error) {
	_, code := statusForErr(err)
	primary := ""
	var np *NotPrimaryError
	if errors.As(err, &np) {
		primary = np.PrimaryAddr
	}
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, code, err.Error(), primary, 0))
}

// sendFrameErrorCode answers a stream with an explicit error code.
func (s *HTTPServer) sendFrameErrorCode(cn *frame.Conn, stream uint64, code, msg string) {
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, code, msg, "", 0))
}

// admitFrame acquires an admission slot of class c for a frame on
// stream, or answers the overloaded TError and reports ok=false — the
// framed twin of admitHTTP.
func (s *HTTPServer) admitFrame(ctx context.Context, cn *frame.Conn, stream uint64, c admit.Class) (release func(), ok bool) {
	release, ok = s.gate.Acquire(ctx, c)
	if !ok {
		s.sendFrameOverloaded(cn, stream, c.String()+" queue full")
		return nil, false
	}
	return release, true
}

// sendFrameOverloaded answers a stream with the typed shed envelope:
// the overloaded code plus the retry-after hint in milliseconds — the
// framed twin of the HTTP plane's 429 + Retry-After.
func (s *HTTPServer) sendFrameOverloaded(cn *frame.Conn, stream uint64, msg string) {
	retryMS := uint64(s.gate.RetryAfter() / time.Millisecond)
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, wire.CodeOverloaded, msg, "", retryMS))
}
