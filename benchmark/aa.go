package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The A/A check: the acceptance procedure run on one tree. Every
// workload is run `runs` times with seeds 1..runs, and the whole thing
// twice. A metric passes when, in both sets, the distance between its
// quartiles stays within its bound as a share of the median (set-up time
// excepted: it is judged on medians only), and the second set's median
// is not worse than the first's by more than the bound. Each run is a
// fresh process, as it is for the driver.

// aaCheck returns the process exit code: 0 when every metric of every
// workload passes.
func aaCheck(spec *benchSpec, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	// values[set][workload][metric] lists one value per seed.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range spec.Workloads {
			values[set][w.Name] = make(map[string][]float64)
			for seed := 1; seed <= runs; seed++ {
				line, err := runChild(exe, w.Name, seed)
				if err != nil {
					return fatal(fmt.Errorf("set %d %s seed %d: %w", set+1, w.Name, seed, err))
				}
				if !line.Correct {
					return fatal(fmt.Errorf("set %d %s seed %d: outputs not correct (%d of %d failed)", set+1, w.Name, seed, line.Failed, line.Attempted))
				}
				for name, m := range line.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				// The per-run record: which run saw what, and when.
				raw, _ := json.Marshal(line.Metrics) // plain floats and strings cannot fail
				fmt.Fprintf(os.Stderr, "aa %s set %d %s seed %d %s\n", time.Now().Format("15:04:05"), set+1, w.Name, seed, raw)
			}
		}
	}
	code := 0
	fmt.Printf("%-20s %-24s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median1", "median2", "spread1", "spread2", "gap", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			v := judge(a, b, m)
			verdict := "ok"
			if !v.ok {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-20s %-24s %12.6g %12.6g %8.3f %8.3f %+8.3f %6.2f %s\n",
				w.Name, m.Name, v.median[0], v.median[1], v.spread[0], v.spread[1], v.gap, m.Bound, verdict)
		}
	}
	return code
}

// aaVerdict is one metric's A/A outcome on one workload.
type aaVerdict struct {
	median [2]float64
	spread [2]float64 // interquartile distance / median
	gap    float64    // how much worse the second median is, as a share of the first; negative = better
	ok     bool
}

func judge(a, b []float64, m specMetric) aaVerdict {
	var v aaVerdict
	for i, xs := range [2][]float64{a, b} {
		q1, q2, q3 := quartiles(xs)
		v.median[i] = q2
		v.spread[i] = (q3 - q1) / q2
	}
	v.gap = (v.median[1] - v.median[0]) / v.median[0]
	if m.Better == "higher" {
		v.gap = -v.gap
	}
	v.ok = v.gap <= m.Bound
	if m.Name != "setup_s" {
		v.ok = v.ok && v.spread[0] <= m.Bound && v.spread[1] <= m.Bound
	}
	return v
}

// runChild runs one workload once in a fresh process and parses the
// result line, the last line of its standard output.
func runChild(exe, workload string, seed int) (*resultLine, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &line, nil
}
