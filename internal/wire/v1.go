// Wire protocol v1: the versioned batch API a HyRec deployment speaks
// between the typed Go client (hyrec/client) and the shared HTTP mux
// (internal/server). The legacy Table-1 endpoints (/online, /neighbors,
// /rate, /recommendations) remain served as thin aliases; everything new
// goes through /v1.
//
//	POST /v1/rate       RateRequest            → RateResponse
//	GET  /v1/job?uid=U  —                      → Job (format 3, never gzipped)
//	GET  /v1/job?worker=1&wait=D               → next leased job (204 when idle)
//	POST /v1/result     Result                 → RecsResponse
//	POST /v1/ack        AckRequest             → AckResponse
//	GET  /v1/recs?uid=U&n=N                    → RecsResponse
//	GET  /v1/neighbors?uid=U                   → NeighborsResponse
//	GET  /v1/topology   —                      → Topology
//	POST /v1/topology   ScaleRequest           → Topology (after the live reshard)
//
// The worker form of /v1/job is the pull loop of client.Worker: the
// scheduler (internal/sched) dispatches the stalest pending user's job,
// stamped with lease metadata; an idle queue long-polls up to `wait`
// and answers 204 No Content. Widgets complete a lease implicitly by
// posting the result (Result.Lease) or explicitly via /v1/ack; an ack
// with done=false abandons the lease for immediate re-issue.
//
// Every non-2xx response carries an ErrorEnvelope with a stable machine
// code, so clients dispatch on Code instead of parsing message text.
package wire

import "net/http"

// V1Prefix is the path prefix of the versioned protocol.
const V1Prefix = "/v1"

// Protocol limits enforced by the server. Oversized requests are
// rejected with CodeTooLarge and HTTP 413 rather than truncated.
const (
	// MaxBatchRatings bounds the ratings accepted in one RateRequest.
	MaxBatchRatings = 4096
	// MaxBodyBytes bounds any /v1 request body.
	MaxBodyBytes = 1 << 20
)

// RatingMsg is one opinion in a batch rate request. Unlike job/result
// messages, ratings travel with real identifiers: they flow client →
// server only and never expose another user's data.
type RatingMsg struct {
	UID   uint32 `json:"uid"`
	Item  uint32 `json:"item"`
	Liked bool   `json:"liked"`
}

// RateRequest is the body of POST /v1/rate.
type RateRequest struct {
	Ratings []RatingMsg `json:"ratings"`
}

// RateResponse acknowledges a batch: how many ratings were applied.
type RateResponse struct {
	Accepted int `json:"accepted"`
}

// RecsResponse carries recommendations — the response of POST /v1/result
// and GET /v1/recs. Items are real (de-anonymised) identifiers.
type RecsResponse struct {
	Recs []uint32 `json:"recs"`
}

// NeighborsResponse is the response of GET /v1/neighbors: the user's
// current KNN approximation as real user identifiers.
type NeighborsResponse struct {
	Neighbors []uint32 `json:"neighbors"`
}

// AckRequest is the body of POST /v1/ack: done=true marks the leased
// job complete without posting a result (a worker that computed but has
// nothing new to report), done=false abandons the lease so the job is
// re-issued immediately instead of waiting for lease expiry — the
// polite form of churning out.
type AckRequest struct {
	Lease uint64 `json:"lease"`
	Done  bool   `json:"done"`
}

// AckResponse acknowledges an ack.
type AckResponse struct {
	Status string `json:"status"`
}

// Topology is the cluster shape served on GET /v1/topology (and
// returned by POST /v1/topology after a scale): the partition count and
// virtual-node parameter fully determine the consistent-hash ring, so a
// client that caches them can predict routing; Migrating reports
// whether a live resharding is streaming user state right now.
type Topology struct {
	Partitions int  `json:"partitions"`
	VNodes     int  `json:"vnodes,omitempty"`
	Migrating  bool `json:"migrating"`
	// UsersMovedTotal counts users migrated across all scale events of
	// this process (mirrors hyrec_migration_users_moved_total).
	UsersMovedTotal int64 `json:"users_moved_total"`

	// Multi-node deployments additionally publish the node map (see
	// node.go): which node serves each partition as primary and which
	// mirrors it, stamped with the map epoch. Self identifies the node
	// that answered. All three are absent on single-process deployments.
	NodeEpoch uint64     `json:"node_epoch,omitempty"`
	Nodes     []NodeInfo `json:"nodes,omitempty"`
	Self      string     `json:"self,omitempty"`
	// NodeCoordinator echoes the in-force map's Coordinator, so a map
	// reconstructed from a topology pull keeps its tie-break identity.
	NodeCoordinator string `json:"node_coordinator,omitempty"`
	// Owner answers the ?uid=U form of GET /v1/topology: the node
	// currently serving that user's partition as primary.
	Owner *NodeRef `json:"owner,omitempty"`
}

// ScaleRequest is the body of POST /v1/topology: the target partition
// count for a live resharding.
type ScaleRequest struct {
	Partitions int `json:"partitions"`
}

// Machine-readable error codes of the v1 protocol.
const (
	// CodeBadRequest: malformed parameters or body.
	CodeBadRequest = "bad_request"
	// CodeUnknownUser: the user was never seen by Rate or Job.
	CodeUnknownUser = "unknown_user"
	// CodeStaleEpoch: the result references an anonymiser epoch that is
	// no longer resolvable (or, on a cluster, resolvable nowhere).
	CodeStaleEpoch = "stale_epoch"
	// CodeUnknownLease: the acked lease is not outstanding — already
	// completed, superseded, expired past its retry budget, or never
	// issued.
	CodeUnknownLease = "unknown_lease"
	// CodeMoved: the request's user state moved to a different
	// partition in a completed topology change; the client should
	// refetch GET /v1/topology and retry once.
	CodeMoved = "moved"
	// CodeNotPrimary: the request (a worker result/ack, a replication
	// batch, or a forwarded user request) landed on a node that does not
	// serve the user's partition as primary — typically a replica that
	// only mirrors the state. Like CodeMoved, the client should refetch
	// GET /v1/topology and retry once; the envelope's Primary field
	// carries the owning node's address when the rejecting node knows it.
	CodeNotPrimary = "not_primary"
	// CodeTooLarge: the request exceeds MaxBatchRatings or MaxBodyBytes.
	CodeTooLarge = "too_large"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded: the server's admission gate shed the request
	// because its class's bounded queue is full. Sent as HTTP 429 with a
	// Retry-After header (and RetryAfterMS in the envelope), or as a
	// framed TError carrying the same retry-after hint. The client
	// should back off at least the hinted duration before one retry.
	CodeOverloaded = "overloaded"
	// CodeForbidden: a node-plane request (/v1/replicate, /v1/nodes)
	// without the deployment's shared secret.
	CodeForbidden = "forbidden"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// codeStatus is the HTTP status each error code travels with on the
// JSON plane. The server writes it and the client reads it back for
// framed TError envelopes, which carry only the code.
var codeStatus = map[string]int{
	CodeBadRequest:       http.StatusBadRequest,
	CodeUnknownUser:      http.StatusNotFound,
	CodeStaleEpoch:       http.StatusGone,
	CodeUnknownLease:     http.StatusNotFound,
	CodeMoved:            http.StatusMisdirectedRequest,
	CodeNotPrimary:       http.StatusMisdirectedRequest,
	CodeTooLarge:         http.StatusRequestEntityTooLarge,
	CodeMethodNotAllowed: http.StatusMethodNotAllowed,
	CodeOverloaded:       http.StatusTooManyRequests,
	CodeForbidden:        http.StatusForbidden,
	CodeInternal:         http.StatusInternalServerError,
}

// StatusOf returns the HTTP status of an error code; a code outside the
// protocol is an internal error.
func StatusOf(code string) int {
	if status, ok := codeStatus[code]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// ErrorBody is the typed payload inside an ErrorEnvelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Primary is the owning node's address on CodeNotPrimary answers,
	// so a node-aware client can re-target without a topology fetch.
	Primary string `json:"primary,omitempty"`
	// RetryAfterMS is the backoff hint in milliseconds on CodeOverloaded
	// answers (mirrors the Retry-After header, at finer resolution).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the JSON shape of every v1 error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}
