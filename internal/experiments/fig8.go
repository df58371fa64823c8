package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"

	"hyrec"
	"hyrec/internal/baseline"
	"hyrec/internal/core"
	"hyrec/internal/loadgen"
)

// Fig8Point is one profile-size sample of Figure 8: mean response time (ms)
// of each front-end for a single-client request stream.
type Fig8Point struct {
	ProfileSize int
	HyRec10     float64
	HyRec20     float64
	CRec10      float64
	CRec20      float64
	Online10    float64
}

// fig8Users is the synthetic population size of the server experiments.
// It must be large enough that Online-Ideal's O(N·ps) per-request scan
// dominates HTTP fixed costs — the paper's "huge response times" regime;
// HyRec's and CRec's per-request work is independent of N.
const fig8Users = 2500

// Figure8 measures front-end response time versus profile size: HyRec
// (sampler + job encoding) against CRec (server-side Algorithm 2 over the
// candidate set) and the Online-Ideal (exact KNN per request), with the
// KNN tables pre-filled (Section 5.5's worst case).
func Figure8(opt Options) []Fig8Point {
	requests := opt.requestsOr(300)
	sizes := []int{10, 50, 100, 200, 350, 500}
	var out []Fig8Point
	for _, ps := range sizes {
		point := Fig8Point{ProfileSize: ps}
		point.HyRec10 = measureHyRec(ps, 10, requests, 1, opt)
		point.HyRec20 = measureHyRec(ps, 20, requests, 1, opt)
		point.CRec10 = measureCRec(ps, 10, requests, 1, false, opt)
		point.CRec20 = measureCRec(ps, 20, requests, 1, false, opt)
		point.Online10 = measureCRec(ps, 10, maxInt(requests/10, 20), 1, true, opt)
		out = append(out, point)
		opt.logf("fig8 ps=%d: hyrec k10 %.2fms, crec k10 %.2fms, online %.2fms\n",
			ps, point.HyRec10, point.CRec10, point.Online10)
	}
	return out
}

// measureHyRec stands up a HyRec HTTP server over a synthetic population
// and load-tests /online.
func measureHyRec(ps, k, requests, concurrency int, opt Options) float64 {
	cfg := hyrec.DefaultConfig()
	cfg.K = k
	cfg.Seed = opt.seedOr(1)
	engine := hyrec.NewEngine(cfg)
	seedEngine(engine, ps, k, opt.seedOr(1))

	srv := hyrec.NewHTTPServer(engine, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	res := loadgen.Run(func(i int) string {
		return fmt.Sprintf("%s/online?uid=%d", ts.URL, i%fig8Users)
	}, requests, concurrency)
	return res.Latency.Mean
}

// measureCRec stands up the centralized front-end and load-tests
// /recommend.
func measureCRec(ps, k, requests, concurrency int, online bool, opt Options) float64 {
	fe := baseline.NewFrontEnd(k, 10, core.Cosine{}, online)
	profiles := syntheticProfiles(fig8Users, ps, opt.seedOr(1))
	fe.Seed(profiles, randomKNN(fig8Users, k, opt.seedOr(1)))
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	res := loadgen.Run(func(i int) string {
		return fmt.Sprintf("%s/recommend?uid=%d", ts.URL, i%fig8Users)
	}, requests, concurrency)
	return res.Latency.Mean
}

// seedEngine populates a HyRec engine with the synthetic worst-case state.
func seedEngine(engine *hyrec.Engine, ps, k int, seed int64) {
	for _, p := range syntheticProfiles(fig8Users, ps, seed) {
		engine.Profiles().Put(p)
	}
	for u, hood := range randomKNN(fig8Users, k, seed) {
		engine.KNN().Put(u, hood)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FprintFigure8 renders the response-time table.
func FprintFigure8(w io.Writer, points []Fig8Point) {
	fmt.Fprintln(w, "Figure 8: mean front-end response time vs profile size (ms)")
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %10s\n", "ps", "hyrec k10", "hyrec k20", "crec k10", "crec k20", "online k10")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			p.ProfileSize, p.HyRec10, p.HyRec20, p.CRec10, p.CRec20, p.Online10)
	}
}
