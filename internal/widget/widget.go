// Package widget implements the HyRec client (Section 3.2): the piece of
// code that runs "in the browser", executing personalization jobs — KNN
// selection (Algorithm 1) and item recommendation (Algorithm 2) — and
// posting results back. The widget keeps no local state between jobs:
// what it recycles from one job to the next (the inflate buffer, the
// KNN and recommendation scratch) is storage only, emptied before
// reuse and never read across jobs, so any widget instance on any
// device computes the same result for the same job.
//
// The paper measures a JavaScript widget on a laptop (Firefox) and an
// Android smartphone; here the identical algorithms run natively and a
// Device model translates measured laptop-class times into other device
// classes and CPU-load conditions (substitution 2 of ARCHITECTURE.md,
// "Substitutions for the paper's testbed").
package widget

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/topk"
	"hyrec/internal/wire"
)

// Device models the class of machine the widget runs on. SpeedFactor
// scales compute time relative to the reference laptop (1.0); Load is the
// fraction of CPU consumed by other applications (the paper's stress/antutu
// experiments), which inflates effective latency by 1/(1-Load).
type Device struct {
	Name        string
	SpeedFactor float64
	Load        float64
}

// Laptop is the reference device (Dell Latitude E4310 in the paper).
func Laptop() Device { return Device{Name: "laptop", SpeedFactor: 1} }

// Smartphone models the Wiko Cink King: calibrated from Figure 13, where
// smartphone widget times are roughly 6–8× the laptop's.
func Smartphone() Device { return Device{Name: "smartphone", SpeedFactor: 7} }

// WithLoad returns a copy of d under the given background CPU load
// (0 ≤ load < 1).
func (d Device) WithLoad(load float64) Device {
	d.Load = load
	return d
}

// Scale converts a measured reference duration into this device's
// simulated duration.
func (d Device) Scale(measured time.Duration) time.Duration {
	f := d.SpeedFactor
	if f <= 0 {
		f = 1
	}
	load := d.Load
	if load < 0 {
		load = 0
	}
	if load >= 0.95 {
		load = 0.95 // saturate rather than divide by ~0
	}
	return time.Duration(float64(measured) * f / (1 - load))
}

// Timing reports where one job execution spent its time. Measured on the
// reference machine; Total is scaled to the widget's device.
type Timing struct {
	Decompress time.Duration
	Decode     time.Duration
	KNN        time.Duration
	Recommend  time.Duration
	// Total is the device-scaled end-to-end widget time; the quantity
	// Figures 12 and 13 plot.
	Total time.Duration
}

// Widget executes personalization jobs. The zero value is not usable;
// construct with New. A Widget is stateless across jobs (by design, so a
// user can roam across devices) and safe for concurrent use.
type Widget struct {
	metric core.Similarity
	device Device
	// workers > 1 enables the web-worker parallel execution mode
	// (see WithWorkers in parallel.go).
	workers int
}

// Option customises a Widget (functional options per the style guide).
type Option func(*Widget)

// WithSimilarity replaces the similarity metric (Table 1:
// setSimilarity()).
func WithSimilarity(m core.Similarity) Option {
	return func(w *Widget) { w.metric = m }
}

// WithDevice sets the device model.
func WithDevice(d Device) Option {
	return func(w *Widget) { w.device = d }
}

// New returns a widget with cosine similarity on the reference laptop,
// modified by opts.
func New(opts ...Option) *Widget {
	w := &Widget{metric: core.Cosine{}, device: Laptop()}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Device returns the widget's device model.
func (w *Widget) Device() Device { return w.device }

// ExecutePayload inflates and decodes a gzip job payload, then executes it.
func (w *Widget) ExecutePayload(gz []byte) (*wire.Result, Timing, error) {
	var timing Timing

	// The inflated body is scratch: the decoded job aliases none of it.
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)

	start := time.Now()
	raw, err := wire.AppendDecompress((*buf)[:0], gz)
	if err != nil {
		return nil, timing, fmt.Errorf("widget: inflate job: %w", err)
	}
	*buf = raw
	timing.Decompress = time.Since(start)

	start = time.Now()
	job, err := wire.DecodeJob(raw)
	if err != nil {
		return nil, timing, fmt.Errorf("widget: parse job: %w", err)
	}
	timing.Decode = time.Since(start)

	res, execTiming := w.Execute(job)
	timing.KNN = execTiming.KNN
	timing.Recommend = execTiming.Recommend
	timing.Total = w.device.Scale(timing.Decompress + timing.Decode + timing.KNN + timing.Recommend)
	return res, timing, nil
}

// execScratch is the pooled per-execution working set: the decoded
// candidate profiles, the KNN neighborhood, Algorithm 2's tally map, a
// rec buffer and a re-armable top-k collector. The widget stays stateless
// across jobs — the pool only recycles storage, never results.
type execScratch struct {
	cands []core.Profile
	hood  []core.Neighbor
	recs  []core.ItemID
	col   *topk.Collector
	pop   map[core.ItemID]int
}

var execPool = sync.Pool{New: func() any {
	return &execScratch{col: topk.New(8), pop: make(map[core.ItemID]int, 64)}
}}

func releaseExecScratch(sc *execScratch) {
	// Zero the profile slots so pooled scratch does not pin decoded
	// profiles (and their packed forms) between jobs.
	for i := range sc.cands {
		sc.cands[i] = core.Profile{}
	}
	sc.cands = sc.cands[:0]
	sc.hood = sc.hood[:0]
	sc.recs = sc.recs[:0]
	execPool.Put(sc)
}

// Execute runs one personalization job: γ then α over the candidate set,
// entirely in pseudonym space. It returns the result to POST back and the
// measured timings.
func (w *Widget) Execute(job *wire.Job) (*wire.Result, Timing) {
	var timing Timing

	sc := execPool.Get().(*execScratch)
	defer releaseExecScratch(sc)

	own := wire.MsgToProfile(job.Profile)
	candidates := slices.Grow(sc.cands[:0], len(job.Candidates))
	for _, msg := range job.Candidates {
		candidates = append(candidates, wire.MsgToProfile(msg))
	}
	sc.cands = candidates

	start := time.Now()
	neighbors := w.selectKNN(own, candidates, job.K, sc)
	timing.KNN = time.Since(start)

	start = time.Now()
	recs := w.recommend(own, candidates, job.R, sc)
	timing.Recommend = time.Since(start)

	res := &wire.Result{
		UID:   job.UID,
		Epoch: job.Epoch,
		// Echo the lease so the scheduler retires it on fold-in.
		Lease:           job.Lease,
		Neighbors:       make([]uint32, len(neighbors)),
		Recommendations: make([]uint32, len(recs)),
	}
	for i, n := range neighbors {
		res.Neighbors[i] = uint32(n.User)
	}
	for i, item := range recs {
		res.Recommendations[i] = uint32(item)
	}
	timing.Total = w.device.Scale(timing.KNN + timing.Recommend)
	return res, timing
}
