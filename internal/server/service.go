package server

import (
	"context"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Service is the single transport-agnostic front-end API of a HyRec
// deployment. Both the single-machine *Engine and the user-partitioned
// *cluster.Cluster implement it, as does the typed HTTP client
// (hyrec/client), so every downstream layer — the HTTP mux, trace
// replay, load generation, stress harnesses, examples — is written once
// against this interface instead of once per concrete front-end.
//
// All methods are safe for concurrent use. Contexts bound the work: an
// already-cancelled context fails fast, and network-backed
// implementations honour deadlines on every request.
type Service interface {
	// Rate records one binary opinion (Arrow 1 of Figure 1).
	Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error
	// RateBatch records many opinions in one call — the amortization
	// path for high-throughput ingestion (POST /v1/rate on the wire).
	RateBatch(ctx context.Context, ratings []core.Rating) error
	// Job assembles u's personalization job (Arrow 2 of Figure 1).
	Job(ctx context.Context, u core.UserID) (*wire.Job, error)
	// ApplyResult folds a widget's KNN selection back into the tables
	// (Arrow 3 of Figure 1) and returns the de-anonymised
	// recommendations it carried.
	ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error)
	// Recommendations returns the most recent recommendations computed
	// for u (up to n; n <= 0 means all retained).
	Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error)
	// Neighbors returns u's current KNN approximation.
	Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error)
	// Close releases resources (flushes client batches, stops background
	// work). Safe to call multiple times.
	Close() error
}

// The capability interfaces below are optional fast paths and hooks the
// HTTP front-end probes for with type assertions. In-process services
// (Engine, Cluster, Node) implement all of them; a remote client need not.
//
// Fetching a job has a struct form every service offers — Service.Job
// for a user's pull, JobSource.NextJob for a worker dispatch — and a
// payload form the transports prefer: Payloader / PayloadAppender /
// JSONJobAppender for a pull, JobDispatcher for a dispatch. In an engine
// the payload form is the primary one (one assembler, Engine.appendJob,
// metered where it runs) and the struct form is its decode.

// Payloader serves pre-serialized job payloads (JSON + gzip, metered),
// skipping the generic encode path.
type Payloader interface {
	JobPayload(u core.UserID) (jsonBody, gzBody []byte, err error)
}

// PayloadAppender is the pooled-buffer form of Payloader: the payloads
// are appended into caller-owned buffers (wire.GetPayloadBufs), so a
// steady-state serve allocates nothing. The returned slices alias the
// (possibly re-grown) inputs and are only valid until the caller recycles
// them.
type PayloadAppender interface {
	AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error)
}

// JSONJobAppender is the gzip-free sibling of PayloadAppender for
// transports that ship raw JSON bytes (the framed plane): same payload
// bytes, no compressed twin produced or metered.
type JSONJobAppender interface {
	AppendJobJSON(ctx context.Context, u core.UserID, jsonDst []byte) ([]byte, error)
}

// JobSource dispatches leased jobs to pull-based workers: NextJob blocks
// until a stale user is available (stalest first) or ctx is done, and
// returns (nil, nil) when no work arrived in time — the transport layer
// answers 204 No Content. Services running without the scheduler return
// (nil, nil) immediately.
type JobSource interface {
	NextJob(ctx context.Context) (*wire.Job, error)
}

// LeaseAcker resolves leases without a result: done=true completes the
// job, done=false abandons it for immediate re-issue. Implementations
// return ErrUnknownLease (possibly wrapped) for leases that are not
// outstanding.
type LeaseAcker interface {
	Ack(ctx context.Context, lease uint64, done bool) error
}

// JobDispatcher is JobSource in payload form — what the worker
// transports (WebSocket push, long-poll, framed pull) serve from when the
// service has it. AppendNextJob blocks like NextJob, then appends the
// leased job's JSON to jsonDst and, when wantGz is set, its gzip twin to
// gzDst (the bytes AppendJobPayload would produce for that user), meters
// both inside the service, and returns the lease ID so a transport that
// fails to hand the job off can abandon it (LeaseAcker) instead of leaving
// the user leased until expiry. lease is 0, and nothing is appended, when
// no work arrived in time or the service runs without the scheduler.
type JobDispatcher interface {
	AppendNextJob(ctx context.Context, jsonDst, gzDst []byte, wantGz bool) (jsonBody, gzBody []byte, lease uint64, err error)
}

// UserDirectory registers and looks up users, letting the HTTP layer
// mint cookie identities on first contact.
type UserDirectory interface {
	KnownUser(u core.UserID) bool
	RegisterUser(u core.UserID)
}

// Rotator advances the anonymous mapping; the HTTP layer drives it on a
// timer (Section 3.1: identifiers are periodically shuffled).
type Rotator interface {
	RotateAnonymizer()
}

// UserResolver inverts a pseudonym minted in a given epoch, used by the
// HTTP layer for presence bookkeeping on widget results.
type UserResolver interface {
	ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool)
}

// Configured exposes the engine-level configuration.
type Configured interface {
	Config() Config
}

// TopologyProvider reports the deployment's current topology — served
// on GET /v1/topology and summarized by the /metrics gauges. A single
// engine is a 1-partition topology; a cluster reports its live ring.
type TopologyProvider interface {
	Topology() wire.Topology
}

// Scaler reshapes the deployment to a new partition count at runtime,
// streaming moved users' state between partitions (POST /v1/topology,
// SIGHUP in cmd/hyrec-server). Only elastic deployments (the cluster)
// implement it; the call is synchronous and returns once the migration
// has completed.
type Scaler interface {
	Scale(ctx context.Context, partitions int) error
}

// StatsProvider reports operational counters for the /stats endpoint.
type StatsProvider interface {
	Stats() map[string]any
}

// Compile-time check: the single-machine engine is a full-capability
// Service. (internal/cluster asserts the same for *Cluster, and
// hyrec/client for *Client.)
var (
	_ Service          = (*Engine)(nil)
	_ Payloader        = (*Engine)(nil)
	_ PayloadAppender  = (*Engine)(nil)
	_ UserDirectory    = (*Engine)(nil)
	_ Rotator          = (*Engine)(nil)
	_ UserResolver     = (*Engine)(nil)
	_ Configured       = (*Engine)(nil)
	_ StatsProvider    = (*Engine)(nil)
	_ JobSource        = (*Engine)(nil)
	_ LeaseAcker       = (*Engine)(nil)
	_ JobDispatcher    = (*Engine)(nil)
	_ TopologyProvider = (*Engine)(nil)
)
