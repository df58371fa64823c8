// Multi-node protocol frames: the node map a deployment publishes on
// /v1/topology (node ID → address → owned partitions), the replication
// batches primaries stream to their replicas on /v1/replicate, and the
// coordinator's map push on /v1/nodes. These frames extend the v1
// protocol without touching the single-process endpoints: a one-node
// deployment simply serves a one-entry node map.
package wire

import (
	"encoding/json"
	"fmt"
)

// Multi-node protocol limits. Replication bodies get their own, larger
// cap than MaxBodyBytes: a full-state anti-entropy batch carries whole
// profiles and KNN rows for up to MaxReplUsers users.
const (
	// MaxNodes bounds the nodes in a published node map.
	MaxNodes = 256
	// MaxNodePartitions bounds the partition count a node map may claim.
	MaxNodePartitions = 1 << 12
	// MaxReplUsers bounds the users in one replication batch; larger
	// syncs are chunked by the sender.
	MaxReplUsers = 4096
	// MaxReplRatings bounds the rating deltas in one replication batch;
	// a primary's coalesced backlog is chunked into consecutive seqs.
	MaxReplRatings = MaxBatchRatings
	// MaxReplBodyBytes bounds a /v1/replicate request body.
	MaxReplBodyBytes = 8 << 20
)

// NodeInfo is one node's entry in the published node map: its identity,
// its dialable address, and the ring partitions it currently serves as
// primary and as replica.
type NodeInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// FrameAddr is the node's framed-transport listener (host:port),
	// empty when the node serves JSON/HTTP only. Peers prefer it for
	// replication shipments and proxy hops.
	FrameAddr string `json:"frame_addr,omitempty"`
	// Primary lists the partitions this node owns (serves reads/writes,
	// dispatches worker jobs, streams replication).
	Primary []int `json:"primary,omitempty"`
	// Replica lists the partitions this node mirrors for failover.
	Replica []int `json:"replica,omitempty"`
}

// NodeMap is the authoritative assignment of ring partitions to nodes,
// stamped with a monotone epoch: a node or client holding an older epoch
// must adopt the newer map. It travels embedded in Topology (GET
// /v1/topology) and standalone as the coordinator's push (POST /v1/nodes).
type NodeMap struct {
	Epoch      uint64     `json:"epoch"`
	Partitions int        `json:"partitions"`
	Nodes      []NodeInfo `json:"nodes"`
	// Coordinator identifies the node that published this map (empty on
	// the boot map, which every member computes locally). When two
	// coordinators race the same epoch — a partial partition where each
	// sees a different alive majority — receivers break the tie
	// deterministically in favour of the lower coordinator ID, so every
	// node both publishers can reach settles on the same map.
	Coordinator string `json:"coordinator,omitempty"`
}

// Primary returns the node serving partition p as primary, or nil.
func (m *NodeMap) Primary(p int) *NodeInfo {
	return m.find(p, func(n *NodeInfo) []int { return n.Primary })
}

// Replica returns the node mirroring partition p, or nil.
func (m *NodeMap) Replica(p int) *NodeInfo {
	return m.find(p, func(n *NodeInfo) []int { return n.Replica })
}

func (m *NodeMap) find(p int, list func(*NodeInfo) []int) *NodeInfo {
	for i := range m.Nodes {
		for _, q := range list(&m.Nodes[i]) {
			if q == p {
				return &m.Nodes[i]
			}
		}
	}
	return nil
}

// NodeRef points a client at the node owning one user — the answer to
// GET /v1/topology?uid=U.
type NodeRef struct {
	ID        string `json:"id"`
	Addr      string `json:"addr"`
	Partition int    `json:"partition"`
}

// ReplUser is one user's migratable state on the replication stream —
// the wire form of the engine's ExportUsers/ImportUsers UserState
// (profile opinion sets, KNN row, retained recommendations). Identifiers
// are real, not pseudonyms: replication is server↔server only.
type ReplUser struct {
	UID       uint32   `json:"uid"`
	Liked     []uint32 `json:"liked,omitempty"`
	Disliked  []uint32 `json:"disliked,omitempty"`
	Neighbors []uint32 `json:"neighbors,omitempty"`
	Recs      []uint32 `json:"recs,omitempty"`
}

// ReplBatch is one replication shipment for one partition, in one of two
// forms. A delta shipment carries Ratings — the opinions the primary
// applied since its previous shipment — and is the partition's ordered
// stream: Seq counts delta shipments per (sender, partition), the mirror
// applies seq N+1 only on top of seq N, acks a duplicate without
// re-applying it and answers ReplAck.Gap to anything else. A whole-state
// shipment carries Users — verbatim snapshots, the repair form — stamped
// with the stream position its export reflects; a per-user recency gate
// on the mirror makes duplicate and reordered delivery idempotent, and
// with Full set (one chunk of a complete partition re-ship) it also
// re-bases the mirror's stream position on Seq.
type ReplBatch struct {
	// Epoch is the sender's node-map epoch at ship time — a receiver
	// that no longer mirrors the partition answers with a typed error
	// instead of applying.
	Epoch     uint64      `json:"epoch"`
	Partition int         `json:"partition"`
	Seq       uint64      `json:"seq"`
	Full      bool        `json:"full,omitempty"`
	Users     []ReplUser  `json:"users"`
	Ratings   []RatingMsg `json:"ratings,omitempty"`
}

// ReplAck acknowledges a replication batch. Gap reports a delta shipment
// that was not applied because it does not continue the mirror's stream
// (a lost predecessor, a restarted mirror, a new epoch): the sender must
// re-ship the partition whole-state.
type ReplAck struct {
	Applied int    `json:"applied"`
	Seq     uint64 `json:"seq"`
	Gap     bool   `json:"gap,omitempty"`
}

// EncodeNodeMap serializes a node map for /v1/nodes.
func EncodeNodeMap(m *NodeMap) ([]byte, error) { return json.Marshal(m) }

// DecodeNodeMap parses and bounds-checks a node map — the fuzzed
// production decoder of POST /v1/nodes and of the map embedded in
// snapshot stamps. Oversized input fails with an error wrapping
// ErrTooLarge; structurally invalid maps (partition indexes out of
// range, empty identities) fail with a typed error, never a panic.
func DecodeNodeMap(data []byte) (*NodeMap, error) {
	if len(data) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrTooLarge, len(data), MaxBodyBytes)
	}
	var m NodeMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wire: decode node map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks a node map's structural invariants.
func (m *NodeMap) Validate() error {
	if m.Partitions < 1 || m.Partitions > MaxNodePartitions {
		return fmt.Errorf("wire: node map partitions %d out of [1, %d]", m.Partitions, MaxNodePartitions)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("wire: node map has no nodes")
	}
	if len(m.Nodes) > MaxNodes {
		return fmt.Errorf("%w: node map of %d nodes exceeds %d", ErrTooLarge, len(m.Nodes), MaxNodes)
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("wire: node %d has empty id or addr", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("wire: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		for _, p := range append(append([]int(nil), n.Primary...), n.Replica...) {
			if p < 0 || p >= m.Partitions {
				return fmt.Errorf("wire: node %q claims partition %d outside [0, %d)", n.ID, p, m.Partitions)
			}
		}
	}
	return nil
}

// EncodeReplBatch serializes a replication batch for /v1/replicate.
func EncodeReplBatch(b *ReplBatch) ([]byte, error) { return json.Marshal(b) }

// DecodeReplBatch parses and bounds-checks a replication batch — the
// fuzzed production decoder of POST /v1/replicate.
func DecodeReplBatch(data []byte) (*ReplBatch, error) {
	if len(data) > MaxReplBodyBytes {
		return nil, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrTooLarge, len(data), MaxReplBodyBytes)
	}
	var b ReplBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("wire: decode repl batch: %w", err)
	}
	if b.Partition < 0 || b.Partition >= MaxNodePartitions {
		return nil, fmt.Errorf("wire: repl batch partition %d out of [0, %d)", b.Partition, MaxNodePartitions)
	}
	if len(b.Users) > MaxReplUsers {
		return nil, fmt.Errorf("%w: repl batch of %d users exceeds %d", ErrTooLarge, len(b.Users), MaxReplUsers)
	}
	if len(b.Ratings) > MaxReplRatings {
		return nil, fmt.Errorf("%w: repl batch of %d ratings exceeds %d", ErrTooLarge, len(b.Ratings), MaxReplRatings)
	}
	return &b, nil
}
