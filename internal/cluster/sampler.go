package cluster

import (
	"hyrec/internal/core"
	"hyrec/internal/server"
)

// PeerSampler supplies cross-partition exchange candidates: users owned
// by partitions other than home, drawn (approximately) uniformly. It is
// the cluster analogue of the random-users component of the §3.1 rule —
// the exploration channel that keeps a partitioned KNN graph connected.
// EnginePeers is the in-process implementation; a networked deployment
// would back it with a gossip or RPC layer.
type PeerSampler interface {
	// SamplePeers returns up to n users owned by partitions other than
	// home, excluding `exclude`. Fewer than n may be returned when the
	// sibling rosters are small.
	SamplePeers(home int, n int, exclude core.UserID) []core.UserID
}

// EnginePeers draws exchange candidates directly from the sibling
// engines' rosters — the implementation used when all partitions live in
// one process.
type EnginePeers struct {
	// Cluster is the cluster whose sibling rosters are sampled.
	Cluster *Cluster
}

var _ PeerSampler = EnginePeers{}

// SamplePeers implements PeerSampler: a first pass spreads the budget
// evenly over the sibling partitions (starting after home, each sibling
// drawing from its own seeded RNG), and a second pass redistributes any
// shortfall — so a small or empty sibling does not starve the exchange
// while other rosters still have users to offer.
func (p EnginePeers) SamplePeers(home, n int, exclude core.UserID) []core.UserID {
	// One topology snapshot for the whole draw: a concurrent Scale
	// cannot change the sibling set mid-pass. home may exceed the
	// snapshot's partition count transiently when a scale-in removed the
	// sampling partition; the modulo arithmetic below keeps the draw
	// well-defined for the engine's remaining in-flight jobs.
	t := p.Cluster.snap()
	siblings := len(t.parts) - 1
	if siblings < 1 || n <= 0 {
		return nil
	}
	out := make([]core.UserID, 0, n)
	seen := make(map[core.UserID]struct{}, n)
	take := func(part, want int) {
		for _, u := range t.parts[part].RandomUsers(want, exclude) {
			if _, dup := seen[u]; dup {
				continue
			}
			seen[u] = struct{}{}
			out = append(out, u)
		}
	}
	for pass := 0; pass < 2 && len(out) < n; pass++ {
		for d := 1; d <= siblings && len(out) < n; d++ {
			want := n - len(out)
			if pass == 0 {
				// Even share over the siblings not yet visited this pass.
				if left := siblings - d + 1; left > 1 {
					want = (want + left - 1) / left
				}
			}
			take((home+d)%len(t.parts), want)
		}
	}
	return out
}

// exchangeSampler decorates a partition's default §3.1 sampler with
// cross-partition candidate exchange: the local candidate set is topped
// up with peers drawn from sibling partitions, deduplicated against the
// local picks. With a single partition (or a zero exchange budget) it is
// transparent — the output is exactly the base sampler's.
type exchangeSampler struct {
	base    server.Sampler
	cluster *Cluster
	home    int
}

var _ server.Sampler = (*exchangeSampler)(nil)

// Sample implements server.Sampler: the partition-local §3.1 candidates
// from the base sampler, topped up with exchange candidates drawn from
// sibling rosters (see Engine.RandomUsers). The home engine gives every
// candidate a slot, so foreign users' fragments are cached there too.
func (s *exchangeSampler) Sample(u core.UserID, k int) []core.UserID {
	return s.topUp(s.base.Sample(u, k), u)
}

// topUp appends cross-partition exchange candidates to the local set,
// deduplicated against the local picks.
func (s *exchangeSampler) topUp(out []core.UserID, u core.UserID) []core.UserID {
	n := s.cluster.exchange
	if n <= 0 || s.cluster.NumPartitions() < 2 {
		return out
	}
	peers := s.cluster.peers.SamplePeers(s.home, n, u)
	if len(peers) == 0 {
		return out
	}
	seen := make(map[core.UserID]struct{}, len(out)+len(peers))
	seen[u] = struct{}{}
	for _, v := range out {
		seen[v] = struct{}{}
	}
	for _, v := range peers {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
