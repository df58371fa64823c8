package hyrec

import (
	"context"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/metrics"
	"hyrec/internal/replay"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// System runs the complete HyRec loop — server orchestration plus a
// simulated browser widget per request — behind the replay.System
// interface, so traces drive HyRec and the baselines identically
// (Sections 5.2–5.3 methodology).
//
// The loop is lease-aware with no API change: when cfg enables the
// asynchronous scheduler (Config.LeaseTTL / Config.FallbackWorkers),
// every job the cycle pulls carries a lease, the widget echoes it, and
// the fold-in retires it — the same contract remote deployments get.
// With the default configuration the cycle is the paper's synchronous
// flow, byte-for-byte.
type System struct {
	engine *server.Engine
	widget *widget.Widget
	// wireFidelity routes every job through its wire encoding (job format
	// 3) exactly as on the network (needed for bandwidth experiments);
	// when false, jobs pass in-memory, which replays large traces much
	// faster.
	wireFidelity bool
	rotate       *rotateTimer
}

var _ replay.System = (*System)(nil)

// SystemOption customises a System.
type SystemOption func(*System)

// WithWireFidelity makes every personalization job cross a real
// encode/decode boundary, so bandwidth meters see exactly what a
// deployment would transfer.
func WithWireFidelity() SystemOption {
	return func(s *System) { s.wireFidelity = true }
}

// WithWidget replaces the default widget (e.g. a smartphone-device one).
func WithWidget(w *Widget) SystemOption {
	return func(s *System) { s.widget = w }
}

// WithAnonymizerRotation rotates the anonymous mapping every period of
// virtual time during a replay.
func WithAnonymizerRotation(period time.Duration) SystemOption {
	return func(s *System) { s.rotate = &rotateTimer{period: period, next: period} }
}

type rotateTimer struct {
	period time.Duration
	next   time.Duration
}

// NewSystem builds an in-process HyRec deployment.
func NewSystem(cfg Config, opts ...SystemOption) *System {
	s := &System{
		engine: server.NewEngine(cfg),
		widget: widget.New(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Engine exposes the underlying server engine (meters, tables).
func (s *System) Engine() *Engine { return s.engine }

// Close stops the engine's background work (the scheduler's sweeper and
// fallback pool; a no-op for synchronous configurations). Safe to call
// multiple times.
func (s *System) Close() error { return s.engine.Close() }

// Name implements replay.System.
func (s *System) Name() string { return "hyrec" }

// Rate implements replay.System: a rating is a client request — the
// profile updates and a full personalization job round-trips through the
// widget, exactly as §5.2 replays the traces.
func (s *System) Rate(_ time.Duration, r core.Rating) {
	s.engine.Rate(context.Background(), r.User, r.Item, r.Liked)
	s.cycle(r.User)
}

// Recommend implements replay.System: a recommendation request also runs
// one KNN iteration (HyRec is an online protocol).
func (s *System) Recommend(_ time.Duration, u core.UserID, n int) []core.ItemID {
	recs := s.cycle(u)
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// Neighbors implements replay.System.
func (s *System) Neighbors(u core.UserID) []core.UserID {
	hood, _ := s.engine.Neighbors(context.Background(), u)
	return hood
}

// Tick implements replay.System.
func (s *System) Tick(t time.Duration) {
	if s.rotate == nil || s.rotate.period <= 0 {
		return
	}
	for s.rotate.next <= t {
		s.engine.RotateAnonymizer()
		s.rotate.next += s.rotate.period
	}
}

// cycle performs one full client-server interaction for u and returns the
// recommendations the widget computed.
func (s *System) cycle(u core.UserID) []core.ItemID {
	ctx := context.Background()
	var job *wire.Job
	var err error
	if s.wireFidelity {
		var body []byte
		if body, err = s.engine.AppendJob(ctx, u, nil); err == nil {
			job, err = wire.DecodeJob(body)
		}
	} else {
		job, err = s.engine.Job(ctx, u)
	}
	if err != nil {
		return nil
	}
	res, _ := s.widget.Execute(job)
	recs, err := s.engine.ApplyResult(ctx, res)
	if err != nil {
		return nil
	}
	return recs
}

// ProfileSource adapts the engine's profile table for the metrics package.
func (s *System) ProfileSource() metrics.ProfileSource {
	return engineSource{engine: s.engine}
}

type engineSource struct {
	engine *server.Engine
}

var _ metrics.ProfileSource = engineSource{}

// Profile implements metrics.ProfileSource.
func (e engineSource) Profile(u core.UserID) core.Profile { return e.engine.Profiles().Get(u) }

// Users implements metrics.ProfileSource.
func (e engineSource) Users() []core.UserID { return e.engine.Profiles().Users() }
