// Command hyrec-bench regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment prints a plain-text table whose
// rows mirror the corresponding figure's series; EXPERIMENTS.md records
// paper-vs-measured values.
//
// Usage:
//
//	hyrec-bench -exp all                 # everything, default scales
//	hyrec-bench -exp fig3 -scale 0.3     # one figure, custom workload scale
//	hyrec-bench -exp table2,fig10 -out results.txt
//
// Experiments: table2 fig3 fig4 fig5 fig6 fig7 table3 fig8 fig9 fig10
// fig11 fig12 fig13 bandwidth — plus the extension studies privacy
// (ε-randomized-response quality trade-off), staleness (TiVo-style
// item-based CF vs HyRec), churn (availability vs KNN quality), sampler
// (the §3.1 candidate rule dissected), metrics (similarity metrics
// compared end-to-end), cluster (recall of the partitioned cluster vs the
// single engine), and clusterscale (Rate+Job throughput, 1 vs 4 vs 16
// partitions).
//
// Serving performance is measured by the separate benchmark module in
// benchmark/ (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"hyrec/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hyrec-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments (or 'all')")
		scale    = fs.Float64("scale", 0, "workload scale override (0 = per-experiment default)")
		requests = fs.Int("requests", 0, "request-count override for load experiments")
		window   = fs.Duration("window", 0, "measurement-window override for throughput experiments (clusterscale)")
		seed     = fs.Int64("seed", 0, "seed override")
		outPath  = fs.String("out", "", "also write results to this file")
		verbose  = fs.Bool("v", false, "log progress while experiments run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *outPath, err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	opt := experiments.Options{Scale: *scale, Requests: *requests, Window: *window, Seed: *seed}
	if *verbose {
		opt.Out = os.Stderr
	}

	all := []string{"table2", "fig3", "fig4", "fig5", "fig6", "fig7", "table3",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "bandwidth",
		"privacy", "staleness", "churn", "sampler", "metrics",
		"cluster", "clusterscale"}
	selected := strings.Split(*exp, ",")
	if *exp == "all" {
		selected = all
	}

	var fig7Rows []experiments.Fig7Row
	for _, name := range selected {
		name = strings.TrimSpace(strings.ToLower(name))
		start := time.Now()
		fmt.Fprintf(out, "\n===== %s =====\n", name)
		switch name {
		case "table2":
			experiments.FprintTable2(out, experiments.Table2(opt))
		case "fig3":
			experiments.FprintFigure3(out, experiments.Figure3(opt))
		case "fig4":
			experiments.FprintFigure4(out, experiments.Figure4(opt))
		case "fig5":
			experiments.FprintFigure5(out, experiments.Figure5(opt))
		case "fig6":
			experiments.FprintFigure6(out, experiments.Figure6(opt))
		case "fig7":
			fig7Rows = experiments.Figure7(opt)
			experiments.FprintFigure7(out, fig7Rows)
		case "table3":
			experiments.FprintTable3(out, experiments.Table3(opt, fig7Rows))
		case "fig8":
			experiments.FprintFigure8(out, experiments.Figure8(opt))
		case "fig9":
			experiments.FprintFigure9(out, experiments.Figure9(opt))
		case "fig10":
			experiments.FprintFigure10(out, experiments.Figure10(opt))
		case "fig11":
			experiments.FprintFigure11(out, experiments.Figure11(opt))
		case "fig12":
			experiments.FprintFigure12(out, experiments.Figure12(opt))
		case "fig13":
			experiments.FprintFigure13(out, experiments.Figure13(opt))
		case "bandwidth":
			experiments.FprintBandwidth(out, experiments.Bandwidth(opt))
		case "privacy":
			experiments.FprintPrivacy(out, experiments.PrivacyAblation(opt))
		case "staleness":
			experiments.FprintTivo(out, experiments.StalenessStudy(opt))
		case "churn":
			experiments.FprintChurn(out, experiments.ChurnStudy(opt))
		case "sampler":
			experiments.FprintSampler(out, experiments.SamplerAblation(opt))
		case "metrics":
			experiments.FprintMetrics(out, experiments.MetricCompare(opt))
		case "cluster":
			experiments.FprintClusterRecall(out, experiments.ClusterRecall(opt))
		case "clusterscale":
			experiments.FprintClusterScaling(out, experiments.ClusterScaling(opt))
		default:
			return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(all, " "))
		}
		fmt.Fprintf(out, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
