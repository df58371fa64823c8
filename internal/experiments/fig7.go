package experiments

import (
	"fmt"
	"io"
	"time"

	"hyrec/internal/baseline"
	"hyrec/internal/core"
	"hyrec/internal/dataset"
	"hyrec/internal/mapreduce"
)

// Fig7Row is one dataset's column group in Figure 7: simulated wall-clock
// of each back-end KNN construction, measured at the run scale and
// extrapolated to the paper's full dataset size.
type Fig7Row struct {
	Dataset    string
	ScaleUsers int
	FullUsers  int
	// Measured simulated wall-clock at run scale.
	CRec, MahoutSingle, ClusMahout, Exhaustive time.Duration
	// Extrapolated to the full Table 2 size (substitution 3 of
	// ARCHITECTURE.md, "Substitutions for the paper's testbed":
	// exhaustive scales quadratically in users, CRec linearly, Mahout
	// linearly in ratings with Hadoop startup fixed).
	CRecFull, MahoutSingleFull, ClusMahoutFull, ExhaustiveFull time.Duration
}

// fig7Iterations is the CRec convergence budget (10–20 per the epidemic
// literature; Section 2.3).
const fig7Iterations = 15

// Figure7 measures the wall-clock of the four KNN back-ends on scaled
// versions of ML1/ML2/ML3/Digg and extrapolates to full scale.
func Figure7(opt Options) []Fig7Row {
	metric := core.Cosine{}
	specs := []struct {
		cfg   dataset.GenConfig
		scale float64
	}{
		{dataset.ML1Config(), opt.scaleOr(1.0)},          // 943 users: full scale feasible
		{dataset.ML2Config(), opt.scaleOr(1.0) * 0.25},   // 1510 users at default
		{dataset.ML3Config(), opt.scaleOr(1.0) * 0.025},  // ~1750 users at default
		{dataset.DiggConfig(), opt.scaleOr(1.0) * 0.033}, // ~1950 users at default
	}
	light := mapreduce.SingleNode4Core()
	hdp1 := mapreduce.HadoopSingleNode()
	hdp2 := mapreduce.HadoopTwoNodes()

	rows := make([]Fig7Row, 0, len(specs))
	for _, spec := range specs {
		tr, events, err := generate(spec.cfg, clampScale(spec.scale))
		if err != nil {
			opt.logf("fig7: %v\n", err)
			continue
		}
		profiles := profilesFromEvents(events)
		row := Fig7Row{Dataset: spec.cfg.Name, ScaleUsers: len(profiles), FullUsers: spec.cfg.Users}
		_ = tr

		cr := baseline.CRecBuild(profiles, 10, fig7Iterations, metric, light, opt.seedOr(1))
		row.CRec = cr.WallClock
		opt.logf("fig7 %s: crec %v (%d ops)\n", spec.cfg.Name, cr.WallClock, cr.SimilarityOps)

		m1 := baseline.MahoutBuild(profiles, 10, hdp1, 300, opt.seedOr(1))
		row.MahoutSingle = m1.WallClock
		m2 := baseline.MahoutBuild(profiles, 10, hdp2, 300, opt.seedOr(1))
		row.ClusMahout = m2.WallClock
		opt.logf("fig7 %s: mahout single %v / 2-node %v\n", spec.cfg.Name, m1.WallClock, m2.WallClock)

		ex := baseline.ExhaustiveBuild(profiles, 10, metric, light)
		row.Exhaustive = ex.WallClock
		opt.logf("fig7 %s: exhaustive %v\n", spec.cfg.Name, ex.WallClock)

		// Extrapolate to the paper's full dataset sizes.
		userRatio := float64(spec.cfg.Users) / float64(len(profiles))
		row.CRecFull = scaleDuration(row.CRec, userRatio)
		row.ExhaustiveFull = scaleDuration(row.Exhaustive, userRatio*userRatio)
		// Mahout: pair work scales with ratings (≈ users at fixed
		// avg-profile); the 3 job startups are fixed.
		startup := 3 * hdp1.JobStartup
		row.MahoutSingleFull = startup + scaleDuration(row.MahoutSingle-startup, userRatio)
		startup = 3 * hdp2.JobStartup
		row.ClusMahoutFull = startup + scaleDuration(row.ClusMahout-startup, userRatio)
		rows = append(rows, row)
	}
	return rows
}

func clampScale(s float64) float64 {
	if s > 1 {
		return 1
	}
	if s <= 0 {
		return 0.01
	}
	return s
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// profilesFromEvents folds a binarised trace into final profiles.
func profilesFromEvents(events []dataset.BinaryEvent) []core.Profile {
	m := map[core.UserID]core.Profile{}
	order := []core.UserID{}
	for _, ev := range events {
		p, ok := m[ev.User]
		if !ok {
			p = core.NewProfile(ev.User)
			order = append(order, ev.User)
		}
		m[ev.User] = p.WithRating(ev.Item, ev.Liked)
	}
	out := make([]core.Profile, 0, len(order))
	for _, u := range order {
		out = append(out, m[u])
	}
	return out
}

// FprintFigure7 renders the wall-clock table (both scales).
func FprintFigure7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: KNN back-end wall-clock (simulated cluster; measured@scale → extrapolated full)")
	fmt.Fprintf(w, "%-10s %8s | %12s %12s %12s %12s\n", "dataset", "users", "CRec", "MahoutSingle", "ClusMahout", "Exhaustive")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d | %12s %12s %12s %12s\n",
			r.Dataset, r.ScaleUsers,
			short(r.CRec), short(r.MahoutSingle), short(r.ClusMahout), short(r.Exhaustive))
		fmt.Fprintf(w, "%-10s %8d | %12s %12s %12s %12s\n",
			"  (full)", r.FullUsers,
			short(r.CRecFull), short(r.MahoutSingleFull), short(r.ClusMahoutFull), short(r.ExhaustiveFull))
	}
}

func short(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}
