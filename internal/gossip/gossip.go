// Package gossip implements the fully decentralized (P2P) recommender
// HyRec is compared against in Sections 2.3 and 5.6: every user machine
// runs a peer-sampling service (Cyclon-style view shuffles, after
// Jelasity et al. [35]) under an epidemic clustering layer (Vicinity /
// Gossple-style [50, 19]) that converges each node's view to its k most
// similar peers. Nodes compute recommendations locally from the profiles
// cached in their cluster view.
//
// The network is simulated in discrete virtual-time rounds (the paper's
// "continuous profile exchanges, typically every minute"); every byte that
// would cross the wire is counted per node, which is what the 24 MB-vs-8 kB
// comparison of Section 5.6 measures.
package gossip

import (
	"math/rand"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Config parametrises the P2P network.
type Config struct {
	// K is the clustering-view size (the P2P KNN).
	K int
	// RPSView is the peer-sampling view size (Cyclon's c, typically 20).
	RPSView int
	// ShuffleLen is how many descriptors a Cyclon shuffle exchanges.
	ShuffleLen int
	// Period is the gossip round length in virtual time (1 minute in the
	// paper's comparison).
	Period time.Duration
	// Metric scores profile similarity in the clustering layer.
	Metric core.Similarity
	Seed   int64
}

// DefaultConfig mirrors the paper's P2P comparison setup.
func DefaultConfig() Config {
	return Config{
		K:          10,
		RPSView:    20,
		ShuffleLen: 8,
		Period:     time.Minute,
		Metric:     core.Cosine{},
		Seed:       1,
	}
}

// descriptor is a gossiped node reference. Age drives Cyclon's eviction.
type descriptor struct {
	id  core.UserID
	age int
}

// Node is one user machine in the overlay.
type Node struct {
	id      core.UserID
	profile core.Profile
	rps     []descriptor
	// cluster caches the profiles of the current k most similar peers —
	// unlike HyRec, P2P nodes must store neighbour profiles locally.
	cluster []core.Profile

	bytesSent int64
	bytesRecv int64
}

// ID returns the node's user ID.
func (n *Node) ID() core.UserID { return n.id }

// BytesSent returns the cumulative bytes this node pushed to peers.
func (n *Node) BytesSent() int64 { return n.bytesSent }

// BytesReceived returns the cumulative bytes this node received.
func (n *Node) BytesReceived() int64 { return n.bytesRecv }

// Neighbors returns the node's current cluster view (most similar first).
func (n *Node) Neighbors() []core.UserID {
	out := make([]core.UserID, len(n.cluster))
	for i, p := range n.cluster {
		out[i] = p.User()
	}
	return out
}

// Network is the simulated overlay.
type Network struct {
	cfg   Config
	nodes map[core.UserID]*Node
	order []core.UserID
	rng   *rand.Rand
	now   time.Duration
	next  time.Duration
	// avail, when set, reports whether a node is online at a given virtual
	// time; offline nodes neither initiate nor answer gossip (see
	// SetAvailability).
	avail func(core.UserID, time.Duration) bool
	// roundTime is the virtual time of the round currently executing.
	roundTime time.Duration
	// Rounds counts completed gossip rounds.
	Rounds int
}

// NewNetwork creates an empty overlay.
func NewNetwork(cfg Config) *Network {
	if cfg.Metric == nil {
		cfg.Metric = core.Cosine{}
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Minute
	}
	return &Network{
		cfg:   cfg,
		nodes: make(map[core.UserID]*Node),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		next:  cfg.Period,
	}
}

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.order) }

// Node returns the node for u, or nil.
func (n *Network) Node(u core.UserID) *Node { return n.nodes[u] }

// Join adds a user machine, bootstrapping its RPS view from random
// existing nodes (the usual bootstrap-server assumption).
func (n *Network) Join(u core.UserID) *Node {
	if node, ok := n.nodes[u]; ok {
		return node
	}
	node := &Node{id: u, profile: core.NewProfile(u)}
	for i := 0; i < n.cfg.RPSView && i < len(n.order); i++ {
		peer := n.order[n.rng.Intn(len(n.order))]
		if peer != u {
			node.rps = append(node.rps, descriptor{id: peer})
		}
	}
	n.nodes[u] = node
	n.order = append(n.order, u)
	return node
}

// Rate records a local rating on u's machine (joining it first if needed).
func (n *Network) Rate(u core.UserID, item core.ItemID, liked bool) {
	node := n.Join(u)
	node.profile = node.profile.WithRating(item, liked)
}

// Recommend computes recommendations locally on u's machine from its
// cached cluster profiles — no network traffic (that is the P2P model's
// selling point; its cost is the standing gossip traffic).
func (n *Network) Recommend(u core.UserID, r int) []core.ItemID {
	node, ok := n.nodes[u]
	if !ok {
		return nil
	}
	return core.Recommend(node.profile, node.cluster, r)
}

// SetAvailability installs a churn model: a function reporting whether a
// user's machine is online at a virtual time. Offline nodes skip their own
// gossip turns, and peers that contact them observe a connection timeout
// (Cyclon evicts the dead descriptor). This models the on/off-line
// patterns Section 2.3 lists among P2P deployment challenges; HyRec's
// server, by contrast, serves offline users' profiles regardless
// (Section 2.4), which the ChurnStudy experiment quantifies. A nil model
// means everyone is always online.
func (n *Network) SetAvailability(f func(core.UserID, time.Duration) bool) {
	n.avail = f
}

// online reports whether u is reachable during the current round.
func (n *Network) online(u core.UserID) bool {
	return n.avail == nil || n.avail(u, n.roundTime)
}

// AdvanceTo runs gossip rounds for every period boundary in (now, t].
func (n *Network) AdvanceTo(t time.Duration) {
	for n.next <= t {
		n.roundTime = n.next
		n.runRound()
		n.next += n.cfg.Period
	}
	n.now = t
}

// RunRounds forces the given number of immediate rounds (tests and
// convergence studies). Rounds execute at the current virtual time.
func (n *Network) RunRounds(rounds int) {
	n.roundTime = n.now
	for i := 0; i < rounds; i++ {
		n.runRound()
	}
}

// runRound performs one gossip round: every online node does one Cyclon
// shuffle and one clustering exchange.
func (n *Network) runRound() {
	for _, u := range n.order {
		if n.online(u) {
			n.cyclonShuffle(n.nodes[u])
		}
	}
	for _, u := range n.order {
		if n.online(u) {
			n.clusterExchange(n.nodes[u])
		}
	}
	n.Rounds++
}

// descriptorBytes is the wire size of one gossiped node descriptor
// (id + age + address, as in Cyclon).
const descriptorBytes = 16

// cyclonShuffle exchanges ShuffleLen descriptors with the oldest peer.
func (n *Network) cyclonShuffle(node *Node) {
	if len(node.rps) == 0 {
		return
	}
	// Age all, pick the oldest.
	oldest := 0
	for i := range node.rps {
		node.rps[i].age++
		if node.rps[i].age > node.rps[oldest].age {
			oldest = i
		}
	}
	peerID := node.rps[oldest].id
	peer, ok := n.nodes[peerID]
	if !ok || !n.online(peerID) {
		// Dead or offline peer: the connection times out and Cyclon
		// evicts the descriptor.
		node.rps = append(node.rps[:oldest], node.rps[oldest+1:]...)
		return
	}
	// Build both shuffle payloads.
	outbound := n.sampleDescriptors(node, n.cfg.ShuffleLen-1)
	outbound = append(outbound, descriptor{id: node.id})
	inbound := n.sampleDescriptors(peer, n.cfg.ShuffleLen)

	cost := int64(descriptorBytes * len(outbound))
	node.bytesSent += cost
	peer.bytesRecv += cost
	cost = int64(descriptorBytes * len(inbound))
	peer.bytesSent += cost
	node.bytesRecv += cost

	n.mergeRPS(node, inbound)
	n.mergeRPS(peer, outbound)
}

func (n *Network) sampleDescriptors(node *Node, count int) []descriptor {
	if count > len(node.rps) {
		count = len(node.rps)
	}
	out := make([]descriptor, 0, count)
	perm := n.rng.Perm(len(node.rps))
	for _, i := range perm[:count] {
		out = append(out, node.rps[i])
	}
	return out
}

func (n *Network) mergeRPS(node *Node, incoming []descriptor) {
	have := make(map[core.UserID]bool, len(node.rps)+1)
	have[node.id] = true
	for _, d := range node.rps {
		have[d.id] = true
	}
	for _, d := range incoming {
		if have[d.id] {
			continue
		}
		node.rps = append(node.rps, descriptor{id: d.id, age: 0})
		have[d.id] = true
	}
	// Evict oldest entries beyond capacity.
	for len(node.rps) > n.cfg.RPSView {
		oldest := 0
		for i := range node.rps {
			if node.rps[i].age > node.rps[oldest].age {
				oldest = i
			}
		}
		node.rps = append(node.rps[:oldest], node.rps[oldest+1:]...)
	}
}

// randomSampleSize is how many RPS peers contribute their profile to each
// clustering exchange — the "additional random sample" of the protocol
// described in Section 2.3, which prevents the search from sticking in a
// local optimum.
const randomSampleSize = 3

// clusterExchange is the Vicinity/Gossple step (Section 2.3): contact one
// member of the current KNN view (falling back to a random RPS peer),
// exchange full cluster views including profiles, merge in a small random
// sample of RPS peers' profiles, and keep the k most similar profiles
// seen. Profile payloads dominate P2P bandwidth (Section 5.6).
func (n *Network) clusterExchange(node *Node) {
	var peer *Node
	if len(node.cluster) > 0 {
		peer = n.nodes[node.cluster[n.rng.Intn(len(node.cluster))].User()]
	}
	if (peer == nil || !n.online(peer.id)) && len(node.rps) > 0 {
		peer = n.nodes[node.rps[n.rng.Intn(len(node.rps))].id]
	}
	if peer == nil || peer.id == node.id || !n.online(peer.id) {
		// Unreachable exchange partner: this round's clustering step is
		// lost, exactly the churn penalty decentralized systems pay.
		return
	}

	// Payloads: own profile + cluster view profiles, both directions.
	outbound := append([]core.Profile{node.profile}, node.cluster...)
	inbound := append([]core.Profile{peer.profile}, peer.cluster...)

	cost := profilesWireBytes(outbound)
	node.bytesSent += cost
	peer.bytesRecv += cost
	cost = profilesWireBytes(inbound)
	peer.bytesSent += cost
	node.bytesRecv += cost

	// Random sample: fetch a few RPS peers' profiles (each fetch is
	// traffic from the sampled peer to this node).
	candidates := inbound
	for i := 0; i < randomSampleSize && len(node.rps) > 0; i++ {
		sampled := n.nodes[node.rps[n.rng.Intn(len(node.rps))].id]
		if sampled == nil || sampled.id == node.id || !n.online(sampled.id) {
			continue
		}
		cost := profilesWireBytes([]core.Profile{sampled.profile})
		sampled.bytesSent += cost
		node.bytesRecv += cost
		candidates = append(candidates, sampled.profile)
	}

	node.cluster = mergeCluster(node, candidates, n.cfg.K, n.cfg.Metric)
	peer.cluster = mergeCluster(peer, outbound, n.cfg.K, n.cfg.Metric)
}

// mergeCluster keeps the k profiles most similar to node's own out of its
// current view plus the received candidates.
func mergeCluster(node *Node, received []core.Profile, k int, metric core.Similarity) []core.Profile {
	best := make(map[core.UserID]core.Profile, len(node.cluster)+len(received))
	for _, p := range node.cluster {
		best[p.User()] = p
	}
	for _, p := range received {
		if p.User() == node.id {
			continue
		}
		// Prefer the fresher snapshot.
		if cur, ok := best[p.User()]; !ok || p.Version() > cur.Version() {
			best[p.User()] = p
		}
	}
	candidates := make([]core.Profile, 0, len(best))
	for _, p := range best {
		candidates = append(candidates, p)
	}
	selected := core.SelectKNN(node.profile, candidates, k, metric)
	out := make([]core.Profile, 0, len(selected))
	for _, s := range selected {
		out = append(out, best[s.User])
	}
	return out
}

// profilesWireBytes estimates the wire size of a profile batch using
// the same encoder as HyRec's messages, so the two systems' bandwidth
// numbers are directly comparable.
func profilesWireBytes(profiles []core.Profile) int64 {
	var total int64
	for _, p := range profiles {
		total += int64(len(wire.AppendProfileMsg(nil, wire.ProfileToMsg(p, nil))))
	}
	return total
}

// TotalBytes sums traffic over all nodes (sent side only, to avoid double
// counting).
func (n *Network) TotalBytes() int64 {
	var total int64
	for _, node := range n.nodes {
		total += node.bytesSent
	}
	return total
}

// MeanNodeTraffic returns the average per-node traffic (sent + received),
// the quantity Section 5.6 reports (≈24 MB per Digg node for P2P).
func (n *Network) MeanNodeTraffic() float64 {
	if len(n.nodes) == 0 {
		return 0
	}
	var total int64
	for _, node := range n.nodes {
		total += node.bytesSent + node.bytesRecv
	}
	return float64(total) / float64(len(n.nodes))
}
