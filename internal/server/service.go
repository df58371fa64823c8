package server

import (
	"context"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Service is the single transport-agnostic front-end API of a HyRec
// deployment. The single-machine *Engine, the user-partitioned
// *cluster.Cluster and the multi-node *node.Node implement it, as does
// the typed HTTP client (hyrec/client), so trace replay, load
// generation, stress harnesses and examples are written once against
// this interface instead of once per concrete front-end. The server
// front-end (NewServer) fronts the wider Backend below, which only the
// in-process shapes implement.
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

// Backend is the serving contract NewServer fronts: a Service plus the
// payload, lease, rotation and reporting methods every in-process
// deployment shape — *Engine, *cluster.Cluster, *node.Node — implements.
// The transports serve jobs in payload form only: one assembler
// (Engine.appendJob) produces the format-3 bytes and meters them where
// it runs, and the struct API (Service.Job, JobSource.NextJob) is their
// decode.
//
// The few capabilities only some backends have — UserDirectory here,
// Replicator, NodeMapSink, UserLocator and NodeEpocher in node.go — are
// resolved once, by NewServer.
type Backend interface {
	Service
	LeaseAcker
	// AppendJob appends u's job, in job format 3, to dst and meters it.
	// With a pooled buffer (wire.GetPayloadBufs) a steady-state serve
	// allocates nothing; the returned slice aliases the (possibly
	// re-grown) input.
	AppendJob(ctx context.Context, u core.UserID, dst []byte) ([]byte, error)
	// AppendNextJob is JobSource.NextJob in payload form: it blocks for a
	// stale user, appends the leased job to dst and returns the lease, so
	// a transport that fails to hand the job off can abandon it rather
	// than leave the user leased until expiry. lease is 0, and nothing is
	// appended, when no work arrived in time or the backend runs without
	// the scheduler.
	AppendNextJob(ctx context.Context, dst []byte) (body []byte, lease uint64, err error)
	// RotateAnonymizer advances the anonymous mapping; the server drives
	// it on a timer (Section 3.1: identifiers are periodically shuffled).
	RotateAnonymizer()
	// ResolveUser inverts a pseudonym minted in epoch, for presence
	// bookkeeping on widget results.
	ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool)
	// Config reports the engine-level configuration (seed, admission
	// bounds).
	Config() Config
	// Stats reports the operational counters behind /stats and /metrics.
	Stats() map[string]any
	// Topology reports the current shape, served on GET /v1/topology. A
	// single engine is a 1-partition topology.
	Topology() wire.Topology
}

// JobSource dispatches leased jobs to pull-based workers in struct form:
// NextJob blocks until a stale user is available (stalest first) or ctx
// is done, and returns (nil, nil) when no work arrived in time. The
// typed client and the load harnesses use it; the server's transports
// use Backend.AppendNextJob.
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

// UserDirectory registers and looks up users, letting the server mint
// cookie identities on first contact. Engines and clusters have it; a
// node does not.
type UserDirectory interface {
	KnownUser(u core.UserID) bool
	RegisterUser(u core.UserID)
}

var (
	_ Backend       = (*Engine)(nil)
	_ UserDirectory = (*Engine)(nil)
)
