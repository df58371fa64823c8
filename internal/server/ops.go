package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// The serving operations the three transport planes share — HTTP
// (legacy Table-1 and /v1), the worker WebSocket and the framed
// listener — with their admission answer and error mapping. Each
// operation holds its presence touch and backend call, and errCode maps
// every backend error to its wire code once (wire.StatusOf then gives
// the HTTP status), so a plane only admits (through its route table),
// decodes and encodes.

// rate records one opinion from u (/rate, /online's piggyback).
func (s *HTTPServer) rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	s.seen.Touch(u)
	return s.svc.Rate(ctx, u, item, liked)
}

// rateBatch records a batch of opinions (/v1/rate, TRateBatch). Its
// distinct users count as present, touched in one step.
func (s *HTTPServer) rateBatch(ctx context.Context, ratings []core.Rating) error {
	g := groupByUser(ratings)
	s.seen.Touch(g.users...)
	g.release()
	return s.svc.RateBatch(ctx, ratings)
}

// job serializes u's personalization job into bufs.JSON — and, for the
// Table-1 /online route (gz), its whole-buffer gzip into bufs.Gz — for
// /online, /v1/job and TJobGet. On error bufs keep their pooled
// capacity.
func (s *HTTPServer) job(ctx context.Context, u core.UserID, bufs *wire.PayloadBufs, gz bool) error {
	s.seen.Touch(u)
	body, err := s.svc.AppendJob(ctx, u, bufs.JSON)
	if err != nil {
		return err
	}
	bufs.JSON = body
	if gz {
		gzBody, err := wire.AppendGzip(bufs.Gz, body)
		if err != nil {
			return err
		}
		bufs.Gz = gzBody
	}
	return nil
}

// result folds a widget's KNN selection in and returns the
// recommendations it carried (/neighbors, /v1/result, TResult, the
// worker socket). The real user behind the pseudonym counts as present.
func (s *HTTPServer) result(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	recs, err := s.svc.ApplyResult(ctx, res)
	if err != nil {
		return nil, err
	}
	if u, ok := s.svc.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
		s.seen.Touch(u)
	}
	return recs, nil
}

// Worker dispatch, the operation behind the three worker transports
// (WebSocket push, /v1/job?worker=1 long-poll, framed TJobPull).

// maxWorkerWait caps a worker long-poll (HTTP or framed) so a parked
// worker never outlives the HTTP server's write timeout.
const maxWorkerWait = 25 * time.Second

// workerRepollEvery paces nextJobPayload's re-poll loop.
const workerRepollEvery = 20 * time.Millisecond

// dispatchJob leases the next job within ctx's window and passes its
// format-3 payload to write; the payload is only valid during the call.
// leased reports whether a job was leased and its hand-off attempted.
// When it is true, err is write's error, and a failed write has given
// the lease back, so the user is dispatched again now rather than at
// lease expiry. When it is false, nothing was written and err is the
// dispatch error, nil for a window that closed idle.
func (s *HTTPServer) dispatchJob(ctx context.Context, write func(payload []byte) error) (leased bool, err error) {
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	lease, err := s.nextJobPayload(ctx, bufs)
	if err != nil || lease == 0 {
		return false, err
	}
	if err := write(bufs.JSON); err != nil {
		// An unknown lease (expired or superseded meanwhile) needs no
		// abandoning. The abandon runs detached from ctx, which is often
		// cancelled by whatever made the hand-off fail.
		_ = s.svc.Ack(context.WithoutCancel(ctx), lease, false)
		return true, err
	}
	return true, nil
}

// nextJobPayload blocks until a leased job is serialized into bufs
// (lease != 0), ctx is done (lease 0, nil), or dispatch fails.
//
// The backend can answer "no job" before the window expires: one with no
// scheduler answers immediately, and a scheduler woken mid-Evict during
// a node handoff (or racing its own shutdown) sees an empty queue for an
// instant even though owed work is re-marked stale moments later. Taking that for "idle for the whole window" would miss work
// arriving in the rest of it, so re-poll — paced, to keep scheduler-free
// backends from spinning — until ctx is done.
func (s *HTTPServer) nextJobPayload(ctx context.Context, bufs *wire.PayloadBufs) (lease uint64, err error) {
	for {
		bufs.JSON, lease, err = s.svc.AppendNextJob(ctx, bufs.JSON)
		if lease != 0 || err != nil {
			return lease, err
		}
		select {
		case <-ctx.Done():
			return 0, nil
		case <-time.After(workerRepollEvery):
		}
	}
}

// Admission control: every request entering the HTTP mux or the framed
// listener is classified by its route — rating ingest, worker job
// traffic, rec/neighbor reads — and must clear the gate before any
// service work happens. A full class answers a typed overloaded
// rejection with a retry-after hint instead of queueing without bound:
// 429 {"error":{"code":"overloaded"}} + Retry-After on HTTP, a TError
// carrying the same code and hint on the framed plane. The node plane
// (/v1/replicate, /v1/nodes, TReplBatch) and the worker WebSocket
// upgrade are not gated: peers and attached sockets are already
// bounded by membership and connection counts, and shedding
// replication would trade memory for durability.

// ErrOverloaded is returned when the admission gate sheds a request
// because its class's bounded queue is full. Mapped to HTTP 429 /
// CodeOverloaded; the typed client backs off the hinted duration and
// retries once.
var ErrOverloaded = errors.New("server: overloaded, admission queue full")

// Gate exposes the admission gate (read-only use: stats, tests).
func (s *HTTPServer) Gate() *admit.Gate { return s.gate }

// writeOverloaded answers the typed shed envelope: 429 with a
// Retry-After header in whole seconds (rounded up, per RFC 9110) and
// the finer-grained retry_after_ms inside the error body.
func (s *HTTPServer) writeOverloaded(w http.ResponseWriter, msg string) {
	ra := s.gate.RetryAfter()
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeEnvelope(w, wire.ErrorBody{Code: wire.CodeOverloaded, Message: msg, RetryAfterMS: int64(ra / time.Millisecond)})
}

// errCode maps a backend error to its v1 error code.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrStaleEpoch):
		return wire.CodeStaleEpoch
	case errors.Is(err, ErrUnknownUser):
		return wire.CodeUnknownUser
	case errors.Is(err, ErrUnknownLease):
		return wire.CodeUnknownLease
	case errors.Is(err, ErrNotPrimary):
		// 421: the client refreshes its topology and retries once
		// against the primary the envelope names.
		return wire.CodeNotPrimary
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded
	default:
		return wire.CodeInternal
	}
}

// primaryOf names the node a not_primary rejection points at ("" when
// err is not one, or the rejecting node does not know the primary).
func primaryOf(err error) string {
	var np *NotPrimaryError
	if errors.As(err, &np) {
		return np.PrimaryAddr
	}
	return ""
}

// writeServiceError answers a backend error with its v1 envelope.
func writeServiceError(w http.ResponseWriter, err error) {
	writeEnvelope(w, wire.ErrorBody{Code: errCode(err), Message: err.Error(), Primary: primaryOf(err)})
}

func writeV1Error(w http.ResponseWriter, code, msg string) {
	writeEnvelope(w, wire.ErrorBody{Code: code, Message: msg})
}

// writeEnvelope answers an error envelope with the status its code maps
// to (wire.StatusOf).
func writeEnvelope(w http.ResponseWriter, body wire.ErrorBody) {
	writeJSON(w, wire.StatusOf(body.Code), wire.ErrorEnvelope{Error: body})
}

// writeUnsupported answers a request for an optional capability the
// backend lacks.
func writeUnsupported(w http.ResponseWriter, what string) {
	writeV1Error(w, wire.CodeBadRequest, "this deployment cannot "+what)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // status is sent: a failed body write has no one to tell
}

// decodeBody reads a request body of at most limit bytes and decodes it.
// A body over the limit, or a decode failing with wire.ErrTooLarge,
// answers 413 too_large; any other failure 400 bad_request naming what
// was being read.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, limit int64, what string, decode func([]byte) (T, error)) (v T, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		v, err = decode(body)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return v, true
	case errors.As(err, &tooLarge):
		writeV1Error(w, wire.CodeTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
	case errors.Is(err, wire.ErrTooLarge):
		writeV1Error(w, wire.CodeTooLarge, err.Error())
	default:
		writeV1Error(w, wire.CodeBadRequest, "bad "+what+" body: "+err.Error())
	}
	return v, false
}
