// Multi-node protocol frames: the node map a deployment publishes on
// /v1/topology (node ID → address → owned partitions), the replication
// shipments primaries stream to their replicas on /v1/replicate, and the
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
	// MaxReplUsers bounds the users in one replication shipment; larger
	// syncs are chunked by the sender.
	MaxReplUsers = 4096
	// MaxReplRatings bounds the rating deltas in one replication
	// shipment, across its segments; a primary's coalesced backlog is
	// chunked into consecutive seqs.
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

// ReplBatch is one partition's segment of a replication shipment, in one
// of two forms. A delta segment carries Ratings — the opinions the
// primary applied since its previous one — and is the partition's ordered
// stream: Seq counts delta segments per (sender, partition), the mirror
// applies seq N+1 only on top of seq N, acks a duplicate without
// re-applying it and answers ReplAck.Gap to anything else. A whole-state
// segment carries Users — verbatim snapshots, the repair form — stamped
// with the stream position its export reflects; a per-user recency gate
// on the mirror makes duplicate and reordered delivery idempotent, and
// with Full set (one chunk of a complete partition re-ship) it also
// re-bases the mirror's stream position on Seq.
//
// A shipment is a list of segments for distinct partitions, all from one
// primary node to one mirror node, answered by one ReplAck per segment in
// the same order (CheckShipment bounds it).
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

// ReplAck acknowledges one segment of a shipment. Gap reports a delta
// segment that was not applied because it does not continue the mirror's stream
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

// EncodeReplBatch serializes one segment in its /v1/replicate form.
func EncodeReplBatch(b *ReplBatch) ([]byte, error) { return json.Marshal(b) }

// EncodeReplShipment serializes a shipment for /v1/replicate: a JSON
// array of segments.
func EncodeReplShipment(segs []ReplBatch) ([]byte, error) { return json.Marshal(segs) }

// DecodeReplShipment parses and bounds-checks a shipment — the fuzzed
// production decoder of POST /v1/replicate. A lone segment object (the
// body a single-batch sender posts) is not an array and fails here; it is
// never read as an empty shipment.
func DecodeReplShipment(data []byte) ([]ReplBatch, error) {
	if len(data) > MaxReplBodyBytes {
		return nil, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrTooLarge, len(data), MaxReplBodyBytes)
	}
	var segs []ReplBatch
	if err := json.Unmarshal(data, &segs); err != nil {
		return nil, fmt.Errorf("wire: decode repl shipment: %w", err)
	}
	if err := CheckShipment(segs); err != nil {
		return nil, err
	}
	return segs, nil
}

// CheckShipment enforces a shipment's bounds, shared by both planes'
// decoders: 1 to MaxNodePartitions segments, each for a distinct
// partition in [0, MaxNodePartitions), and at most MaxReplUsers users and
// MaxReplRatings ratings across them all. Size failures wrap ErrTooLarge.
func CheckShipment(segs []ReplBatch) error {
	if len(segs) == 0 {
		return fmt.Errorf("wire: empty repl shipment")
	}
	if len(segs) > MaxNodePartitions {
		return fmt.Errorf("%w: repl shipment of %d segments exceeds %d", ErrTooLarge, len(segs), MaxNodePartitions)
	}
	var seen [MaxNodePartitions / 64]uint64
	users, ratings := 0, 0
	for i := range segs {
		p := segs[i].Partition
		if p < 0 || p >= MaxNodePartitions {
			return fmt.Errorf("wire: repl segment partition %d out of [0, %d)", p, MaxNodePartitions)
		}
		if seen[p/64]&(1<<(p%64)) != 0 {
			return fmt.Errorf("wire: repl shipment carries partition %d twice", p)
		}
		seen[p/64] |= 1 << (p % 64)
		users += len(segs[i].Users)
		ratings += len(segs[i].Ratings)
	}
	if users > MaxReplUsers {
		return fmt.Errorf("%w: repl shipment of %d users exceeds %d", ErrTooLarge, users, MaxReplUsers)
	}
	if ratings > MaxReplRatings {
		return fmt.Errorf("%w: repl shipment of %d ratings exceeds %d", ErrTooLarge, ratings, MaxReplRatings)
	}
	return nil
}
