package server

import (
	"context"
	"errors"
	"fmt"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// This file is the server-side surface of multi-node deployments
// (internal/node): the role-gating error a non-primary answers with, the
// optional node-plane capabilities NewServer resolves once (replication
// ingest, node-map pushes, user location, epoch advertisement), and the
// forwarded-request marking that keeps node-to-node proxying loop-free.
// The engine itself stays topology-blind; a node composes these pieces
// around it.

// ErrNotPrimary is returned when a request that mutates or reads a
// user's authoritative state lands on a node that does not serve the
// user's partition as primary — typically the replica that only mirrors
// it. The HTTP layer maps it to 421/not_primary, which the typed client
// answers by refetching the topology and retrying once: silently
// applying on a mirror would fork the partition's history.
var ErrNotPrimary = errors.New("server: node is not primary for the partition")

// NotPrimaryError decorates ErrNotPrimary with the partition and, when
// the rejecting node knows it, the primary's identity — surfaced in the
// error envelope so a node-aware client can re-target directly.
type NotPrimaryError struct {
	Partition   int
	PrimaryID   string
	PrimaryAddr string
}

func (e *NotPrimaryError) Error() string {
	if e.PrimaryAddr != "" {
		return fmt.Sprintf("server: partition %d is served by node %s (%s), not here", e.Partition, e.PrimaryID, e.PrimaryAddr)
	}
	return fmt.Sprintf("server: partition %d is not served as primary here", e.Partition)
}

func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// Replicator ingests a primary's replication shipment into the local
// mirrors (POST /v1/replicate, TReplBatch), answering one ack per
// segment. Only a node implements it.
type Replicator interface {
	ReplicateShipment(ctx context.Context, segs []wire.ReplBatch) ([]wire.ReplAck, error)
}

// NodeMapSink adopts a coordinator-published node map (POST /v1/nodes):
// the receiver re-gates its partitions' roles to match. Implementations
// must ignore maps with a stale epoch.
type NodeMapSink interface {
	ApplyNodeMap(ctx context.Context, m *wire.NodeMap) error
}

// UserLocator answers which node serves a user's partition as primary —
// the ?uid=U form of GET /v1/topology, used by smoke probes and
// node-aware clients to find (and then kill or target) an owner.
type UserLocator interface {
	LocateUser(u core.UserID) (wire.NodeRef, bool)
}

// NodeEpocher reports the node-map epoch currently in force. /healthz
// advertises it in NodeEpochHeader so the heartbeat path doubles as an
// epoch exchange: a prober that sees a peer on a lower epoch re-pushes
// its map, and one that sees a higher epoch pulls the newer map — the
// repair loop that reconverges restarted nodes and missed pushes.
type NodeEpocher interface {
	NodeEpoch() uint64
}

// NodeEpochHeader carries the responding node's map epoch on /healthz.
const NodeEpochHeader = "X-Hyrec-Node-Epoch"

// NodeSecretHeader authenticates node-plane requests (POST /v1/replicate
// and /v1/nodes) when the deployment configures a shared secret
// (HTTPServer.RequireNodeSecret, hyrec-node -peer-secret). Without a
// secret those endpoints are open — acceptable only when the listener is
// reachable by trusted peers alone, since a well-formed higher-epoch map
// push reassigns partition ownership and a replication batch injects
// user state.
const NodeSecretHeader = "X-Hyrec-Node-Secret"

// ForwardedHeader marks a request already proxied once by a node. A
// node receiving a forwarded request it cannot serve as primary answers
// not_primary instead of proxying again, so topology disagreements
// degrade to a typed error rather than a forwarding loop.
const ForwardedHeader = "X-Hyrec-Forwarded"

type forwardedKey struct{}

// WithForwarded marks ctx as carrying a node-forwarded request. The
// HTTP front-end applies it when ForwardedHeader is present, the framed
// listener to every request of a connection whose hello set the
// forwarded flag.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, forwardedKey{}, true)
}

// IsForwarded reports whether the request behind ctx was already
// proxied by a node.
func IsForwarded(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedKey{}).(bool)
	return v
}

// SetStandby parks or releases this engine's dispatch side (see
// sched.Scheduler.SetStandby): a replica partition's engine runs in
// standby so it never leases jobs for users it only mirrors. No-op
// without a scheduler.
func (e *Engine) SetStandby(standby bool) {
	if e.sched != nil {
		e.sched.SetStandby(standby)
	}
}

// Standby reports whether this engine's dispatch side is parked.
func (e *Engine) Standby() bool {
	return e.sched != nil && e.sched.Standby()
}
