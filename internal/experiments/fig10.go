package experiments

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Fig10Point is one profile-size sample of Figure 10, in two scenarios:
//
//   - Converged: the requesting user's profile has ps items; the candidate
//     set has converged to ≈55 profiles (our Figure 5 measurement for
//     k=10) of ML1-typical size (≈106 items). This is the steady-state
//     message the paper's <10 kB-at-ps=500 claim describes.
//   - WorstCase: the full 2k+k² candidate set with every profile at ps
//     items — the theoretical upper bound (the paper: "the size we
//     consider here is an upper bound").
//
// JSON and Gzip reproduce the paper's own measurement: the job as the
// paper's JSON message (encoding/json, identifiers as they are, no gap
// coding) and its default-level gzip, as the paper's Jetty setup served
// it. Binary is the same job in job format 3, what this implementation
// ships on every /v1 plane.
type Fig10Point struct {
	ProfileSize int

	ConvergedJSON   int
	ConvergedGzip   int
	ConvergedPct    float64
	ConvergedBinary int

	WorstJSON   int
	WorstGzip   int
	WorstPct    float64
	WorstBinary int
}

// fig10ConvergedCandidates is the converged candidate-set size for k=10
// (Figure 5: ≈55 instead of the 120 bound).
const fig10ConvergedCandidates = 55

// fig10TypicalProfile is ML1's average profile size (Table 2: 106).
const fig10TypicalProfile = 106

// Figure10 measures personalization-job wire sizes versus the requesting
// user's profile size: the paper's JSON with default-level gzip (the
// paper's Jetty setup; ≈71% compression), and job format 3.
func Figure10(opt Options) []Fig10Point {
	sizes := []int{10, 50, 100, 200, 300, 400, 500}
	out := make([]Fig10Point, 0, len(sizes))
	for _, ps := range sizes {
		p := Fig10Point{ProfileSize: ps}

		conv := buildJob(ps, fig10ConvergedCandidates, fig10TypicalProfile, 10, opt.seedOr(1))
		p.ConvergedJSON, p.ConvergedGzip, p.ConvergedPct = measureJobSize(conv, opt)
		p.ConvergedBinary = len(wire.AppendJob(nil, conv))

		worst := buildJob(ps, core.MaxCandidateSetSize(10), ps, 10, opt.seedOr(1))
		p.WorstJSON, p.WorstGzip, p.WorstPct = measureJobSize(worst, opt)
		p.WorstBinary = len(wire.AppendJob(nil, worst))

		out = append(out, p)
		opt.logf("fig10 ps=%d: converged json %.1fkB gzip %.1fkB (%.0f%%) format 3 %.1fkB, worst gzip %.1fkB format 3 %.1fkB\n",
			ps, float64(p.ConvergedJSON)/1024, float64(p.ConvergedGzip)/1024, p.ConvergedPct,
			float64(p.ConvergedBinary)/1024, float64(p.WorstGzip)/1024, float64(p.WorstBinary)/1024)
	}
	return out
}

// buildJob assembles a job with a ps-item user profile and nCand
// candidates of candPS items each.
func buildJob(ps, nCand, candPS, k int, seed int64) *wire.Job {
	profiles := syntheticProfiles(nCand+1, candPS, seed)
	user := syntheticProfiles(1, ps, seed+7)[0]
	job := &wire.Job{UID: 0, K: k, R: 10, Profile: wire.ProfileToMsg(user, nil)}
	for _, p := range profiles[1:] {
		job.Candidates = append(job.Candidates, wire.ProfileToMsg(p, nil))
	}
	return job
}

// measureJobSize encodes job as the paper's JSON message and gzips it at
// the default level.
func measureJobSize(job *wire.Job, opt Options) (jsonLen, gzipLen int, pct float64) {
	raw, err := json.Marshal(job)
	var gz bytes.Buffer
	if err == nil {
		zw := gzip.NewWriter(&gz)
		if _, err = zw.Write(raw); err == nil {
			err = zw.Close()
		}
	}
	if err != nil {
		opt.logf("fig10: %v\n", err)
		return 0, 0, 0
	}
	pct = 100 * (1 - float64(gz.Len())/float64(len(raw)))
	return len(raw), gz.Len(), pct
}

// FprintFigure10 renders the bandwidth table.
func FprintFigure10(w io.Writer, points []Fig10Point) {
	fmt.Fprintln(w, "Figure 10: personalization-job size vs requesting user's profile size")
	fmt.Fprintf(w, "%8s | %10s %10s %9s %10s | %10s %10s %9s %10s\n",
		"ps", "conv json", "conv gzip", "compr%", "conv fmt3", "worst json", "worst gzip", "compr%", "worst fmt3")
	for _, p := range points {
		fmt.Fprintf(w, "%8d | %8.1fkB %8.1fkB %8.1f%% %8.1fkB | %8.1fkB %8.1fkB %8.1f%% %8.1fkB\n",
			p.ProfileSize,
			float64(p.ConvergedJSON)/1024, float64(p.ConvergedGzip)/1024, p.ConvergedPct, float64(p.ConvergedBinary)/1024,
			float64(p.WorstJSON)/1024, float64(p.WorstGzip)/1024, p.WorstPct, float64(p.WorstBinary)/1024)
	}
}
