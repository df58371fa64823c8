package hyrec

import (
	"net/http"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// Cluster is a user-partitioned cluster of HyRec engines behind a single
// front-end: each partition is a full Engine (own tables, anonymiser and
// sampler RNG), users are routed to partitions by a consistent-hash ring
// over their ID, and every partition's candidate sets are topped up with
// random users from sibling partitions so the KNN graph converges toward
// the single-engine baseline instead of fragmenting into per-partition
// neighbourhoods. See internal/cluster for the full model.
type Cluster = cluster.Cluster

// ClusterHTTPServer exposes a Cluster over the paper's web API — the
// same server as an engine's; the cluster routes each request to the
// owning partition.
type ClusterHTTPServer = HTTPServer

// NewCluster builds a cluster of nParts engines sharing cfg; partition i
// runs with a seed derived from cfg.Seed. A 1-partition cluster behaves
// identically to a plain Engine with the same configuration. The
// partition count is fixed for the cluster's life: capacity grows by
// adding nodes (cmd/hyrec-node), and a restart over a snapshot may pick
// a different count (see internal/persist's RestoreCluster).
func NewCluster(cfg Config, nParts int) *Cluster { return cluster.New(cfg, nParts) }

// Topology describes a deployment's shape (partition count,
// consistent-hash ring parameter and, on a node, the node map) — served
// on GET /v1/topology and returned by Cluster.Topology.
type Topology = wire.Topology

// NewClusterHTTPServer wraps a cluster with the fan-out web API;
// rotateEvery > 0 rotates every partition's anonymous mapping
// periodically in the background (call Start).
func NewClusterHTTPServer(c *Cluster, rotateEvery time.Duration) *ClusterHTTPServer {
	return server.NewServer(c, rotateEvery)
}

// ClusterHandler returns a ready-to-serve http.Handler fanning out over
// c's partitions, with anonymiser rotation every rotateEvery (0
// disables): the cluster analogue of Handler.
func ClusterHandler(c *Cluster, rotateEvery time.Duration) http.Handler {
	return ServiceHandler(c, rotateEvery)
}
