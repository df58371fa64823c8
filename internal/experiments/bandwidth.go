package experiments

import (
	"fmt"
	"io"
	"time"

	"hyrec"
	"hyrec/internal/dataset"
	"hyrec/internal/gossip"
	"hyrec/internal/replay"
)

// BandwidthResult is the Section 5.6 comparison: per-node traffic of the
// P2P recommender versus per-user traffic of HyRec on a Digg-like
// workload. The paper reports ≈24 MB vs ≈8 kB over the two-week trace.
type BandwidthResult struct {
	Users int
	// P2PPerNodeBytes is the mean per-node gossip traffic over the full
	// trace span (measured over MeasuredRounds, extrapolated linearly to
	// FullRounds: standing gossip traffic is constant per round).
	P2PPerNodeBytes float64
	MeasuredRounds  int
	FullRounds      int
	// HyRecPerUserBytes is the mean per-user HyRec traffic (format-3
	// jobs + results), measured over the whole replay — HyRec only communicates
	// on user activity, so no extrapolation applies.
	HyRecPerUserBytes float64
	Ratio             float64
}

// Bandwidth runs the Digg workload at reduced scale through both systems
// and compares per-node traffic.
func Bandwidth(opt Options) BandwidthResult {
	scale := opt.scaleOr(0.02) // ≈1180 users at default
	tr, events, err := generate(dataset.DiggConfig(), scale)
	if err != nil {
		opt.logf("bandwidth: %v\n", err)
		return BandwidthResult{}
	}

	// --- HyRec with full wire fidelity. ---
	cfg := hyrec.DefaultConfig()
	cfg.K = 10
	cfg.Seed = opt.seedOr(1)
	sys := hyrec.NewSystem(cfg, hyrec.WithWireFidelity())
	replay.NewDriver(sys).Run(events)
	users := sys.Engine().Profiles().Len()
	var hyrecPerUser float64
	if users > 0 {
		hyrecPerUser = float64(sys.Engine().Meter().TotalOnWire()) / float64(users)
	}
	opt.logf("bandwidth: hyrec %.1f kB/user over %d users\n", hyrecPerUser/1024, users)

	// --- P2P gossip: measure a window of rounds, extrapolate to the trace
	// span at one round per minute. ---
	gcfg := gossip.DefaultConfig()
	gcfg.K = 10
	gcfg.Seed = opt.seedOr(1)
	net := gossip.NewNetwork(gcfg)
	for _, ev := range events {
		net.Rate(ev.User, ev.Item, ev.Liked)
	}
	measured := 200
	if opt.Requests > 0 {
		measured = opt.Requests
	}
	// Warm up so views are converged (steady-state traffic).
	net.RunRounds(20)
	warmupTraffic := net.MeanNodeTraffic()
	net.RunRounds(measured)
	perRound := (net.MeanNodeTraffic() - warmupTraffic) / float64(measured)

	fullRounds := int(tr.Span / gcfg.Period)
	p2pPerNode := perRound * float64(fullRounds)
	opt.logf("bandwidth: p2p %.2f kB/node/round → %.1f MB/node over %d rounds\n",
		perRound/1024, p2pPerNode/(1<<20), fullRounds)

	res := BandwidthResult{
		Users:             users,
		P2PPerNodeBytes:   p2pPerNode,
		MeasuredRounds:    measured,
		FullRounds:        fullRounds,
		HyRecPerUserBytes: hyrecPerUser,
	}
	if hyrecPerUser > 0 {
		res.Ratio = p2pPerNode / hyrecPerUser
	}
	return res
}

// FprintBandwidth renders the comparison.
func FprintBandwidth(w io.Writer, res BandwidthResult) {
	fmt.Fprintln(w, "Section 5.6: per-node bandwidth, Digg workload (paper: P2P ≈24 MB vs HyRec ≈8 kB)")
	fmt.Fprintf(w, "users: %d, gossip rounds: %d measured → %d full (%s span)\n",
		res.Users, res.MeasuredRounds, res.FullRounds,
		time.Duration(res.FullRounds)*time.Minute)
	fmt.Fprintf(w, "P2P per node:   %10.2f MB\n", res.P2PPerNodeBytes/(1<<20))
	fmt.Fprintf(w, "HyRec per user: %10.2f kB\n", res.HyRecPerUserBytes/1024)
	fmt.Fprintf(w, "ratio: P2P uses %.0f× more bandwidth per machine\n", res.Ratio)
}
