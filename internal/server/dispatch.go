package server

import (
	"context"
	"time"

	"hyrec/internal/wire"
)

// Worker dispatch, shared by the three worker transports (WebSocket
// push, /v1/job?worker=1 long-poll, framed TJobPull).

// maxWorkerWait caps a worker long-poll (HTTP or framed) so a parked
// worker never outlives the HTTP server's write timeout.
const maxWorkerWait = 25 * time.Second

// workerRepollEvery paces nextJobPayload's re-poll loop.
const workerRepollEvery = 20 * time.Millisecond

// dispatchJob leases the next job from js within ctx's window and passes
// its payload — the gzip form when wantGz, else the JSON — to write; the
// payload is only valid during the call. leased reports whether a job
// was leased and its hand-off attempted. When it is true, err is write's
// error, and a failed write has given the lease back, so the user is
// dispatched again now rather than at lease expiry. When it is false,
// nothing was written and err is the dispatch error, nil for a window
// that closed idle.
func (s *HTTPServer) dispatchJob(ctx context.Context, js JobSource, wantGz bool, write func(payload []byte) error) (leased bool, err error) {
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	lease, ok, err := s.nextJobPayload(ctx, js, bufs, wantGz)
	if err != nil || !ok {
		return false, err
	}
	payload := bufs.JSON
	if wantGz {
		payload = bufs.Gz
	}
	if err := write(payload); err != nil {
		s.abandonLease(ctx, lease)
		return true, err
	}
	return true, nil
}

// nextJobPayload blocks until a leased job is serialized into bufs
// (ok=true), ctx is done (ok=false), or dispatch fails.
//
// The service can answer "no job" before the window expires: one with no
// scheduler answers immediately, and a scheduler woken mid-Evict during
// a scale-in (or racing its own shutdown) sees an empty queue for an
// instant even though the evicted users are re-marked stale moments
// later. Taking that for "idle for the whole window" would miss work
// arriving in the rest of it, so re-poll — paced, to keep scheduler-free
// services from spinning — until ctx is done.
func (s *HTTPServer) nextJobPayload(ctx context.Context, js JobSource, bufs *wire.PayloadBufs, wantGz bool) (lease uint64, ok bool, err error) {
	jd, _ := js.(JobDispatcher)
	for {
		if jd != nil {
			bufs.JSON, bufs.Gz, lease, err = jd.AppendNextJob(ctx, bufs.JSON, bufs.Gz, wantGz)
			ok = lease != 0
		} else {
			lease, ok, err = s.structJobPayload(ctx, js, bufs, wantGz)
		}
		if ok || err != nil {
			return lease, ok, err
		}
		select {
		case <-ctx.Done():
			return 0, false, nil
		case <-time.After(workerRepollEvery):
		}
	}
}

// structJobPayload serializes the next job of a service that has only the
// struct API (a remote client, say) — the one generic encode on the
// worker plane.
func (s *HTTPServer) structJobPayload(ctx context.Context, js JobSource, bufs *wire.PayloadBufs, wantGz bool) (lease uint64, ok bool, err error) {
	job, err := js.NextJob(ctx)
	if err != nil || job == nil {
		return 0, false, err
	}
	bufs.JSON = wire.AppendJob(bufs.JSON, job, nil)
	if wantGz {
		if bufs.Gz, err = wire.AppendGzip(bufs.Gz, bufs.JSON, s.gzipLevel()); err != nil {
			s.abandonLease(ctx, job.Lease)
			return 0, false, err
		}
	}
	return job.Lease, true, nil
}

// abandonLease gives back a lease whose job never reached a worker. It
// runs detached from the request's context, which is often cancelled by
// whatever made the hand-off fail. An unknown lease (expired or
// superseded meanwhile) needs no abandoning.
func (s *HTTPServer) abandonLease(ctx context.Context, lease uint64) {
	if la, ok := s.svc.(LeaseAcker); ok && lease != 0 {
		_ = la.Ack(context.WithoutCancel(ctx), lease, false)
	}
}
