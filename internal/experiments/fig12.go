package experiments

import (
	"fmt"
	"io"
	"time"

	"hyrec"
	"hyrec/internal/stress"
	"hyrec/internal/wire"
)

// Fig12Point is one CPU-load sample of Figure 12: mean widget execution
// time on each device.
type Fig12Point struct {
	LoadPct      float64
	LaptopMs     float64
	SmartphoneMs float64
}

// Figure12 measures the widget's personalization-task latency (profile
// size 100, k=10, gzip payload included) under increasing background CPU
// load. Laptop values are real measurements under stress.Load; smartphone
// values apply the calibrated device factor to the same measurement
// (substitution 2 of ARCHITECTURE.md, "Substitutions for the paper's
// testbed").
func Figure12(opt Options) []Fig12Point {
	job := buildWidgetJob(100, 10, opt.seedOr(1))
	raw, err := wire.EncodeJob(job)
	if err != nil {
		opt.logf("fig12: %v\n", err)
		return nil
	}
	gz, err := wire.Compress(raw, wire.GzipBestSpeed)
	if err != nil {
		opt.logf("fig12: %v\n", err)
		return nil
	}
	w := hyrec.NewWidget()
	phone := hyrec.Smartphone()

	reps := opt.requestsOr(30)
	loads := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}
	var out []Fig12Point
	for _, load := range loads {
		stop := stress.Load(load)
		var total time.Duration
		ok := 0
		for i := 0; i < reps; i++ {
			_, timing, err := w.ExecutePayload(gz)
			if err != nil {
				continue
			}
			total += timing.Decompress + timing.Decode + timing.KNN + timing.Recommend
			ok++
		}
		stop()
		if ok == 0 {
			continue
		}
		mean := total / time.Duration(ok)
		out = append(out, Fig12Point{
			LoadPct:      100 * load,
			LaptopMs:     float64(mean) / float64(time.Millisecond),
			SmartphoneMs: float64(phone.Scale(mean)) / float64(time.Millisecond),
		})
		opt.logf("fig12 load=%.0f%%: laptop %.2fms phone %.2fms\n",
			100*load, out[len(out)-1].LaptopMs, out[len(out)-1].SmartphoneMs)
	}
	return out
}

// FprintFigure12 renders the load-sensitivity table.
func FprintFigure12(w io.Writer, points []Fig12Point) {
	fmt.Fprintln(w, "Figure 12: widget task time vs client CPU load (ps=100, k=10)")
	fmt.Fprintf(w, "%8s %12s %14s\n", "load%", "laptop ms", "smartphone ms")
	for _, p := range points {
		fmt.Fprintf(w, "%8.0f %12.2f %14.2f\n", p.LoadPct, p.LaptopMs, p.SmartphoneMs)
	}
}
