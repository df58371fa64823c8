package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"testing"
)

// buildServers compiles the two server binaries the benchmark drives.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/hyrec-server", "./cmd/hyrec-node")
	cmd.Dir = ".." // the repository root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	return dir
}

// TestSmoke runs every workload against real child processes with a
// short window and checks that each declared metric is printed exactly
// once with a finite value, that outputs are correct, and that the
// traced pass produces every per-layer metric and its span file. With
// -short only the two cheap ingest workloads run.
func TestSmoke(t *testing.T) {
	if err := checkProcfs(); err != nil {
		t.Skip(err)
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.checkWorkloads(); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	sup := newSupervisor(buildServers(t), outDir, nil)
	defer sup.killAll()

	check := func(w workload, traced bool, declared []specMetric) {
		t.Helper()
		report := &results{}
		rs := runSpec{w: w, seed: 1, seconds: 1, clients: 2, setups: 1, noTail: true}
		line, err := runOne(context.Background(), sup, report, spec, rs, traced, outDir)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w.name, traced, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, line.Correct, line.Attempted, line.Failed)
		}
		seen := make(map[string]int)
		for _, r := range report.Rows {
			if r.Workload != w.name {
				t.Errorf("row for %q printed while running %q", r.Workload, w.name)
			}
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("%s %s = %v", w.name, r.Metric, r.Value)
			}
			seen[r.Metric]++
		}
		for _, m := range declared {
			if seen[m.Name] != 1 {
				t.Errorf("%s traced=%v: metric %s printed %d times, want once", w.name, traced, m.Name, seen[m.Name])
			}
			if got := line.Metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: metric %s has unit %q in the result line, %q in the spec", w.name, m.Name, got, m.Unit)
			}
		}
		if len(line.Metrics) != len(declared) {
			t.Errorf("%s traced=%v: result line has %d metrics, spec declares %d", w.name, traced, len(line.Metrics), len(declared))
		}
	}
	for _, w := range workloads {
		if testing.Short() && w.kind != kindIngest {
			continue
		}
		check(w, false, spec.EndToEnd)
	}
	w, _ := findWorkload("ingest-framed-digg")
	check(w, true, spec.PerLayer)
	if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
		t.Errorf("traced pass left no span file: %v", err)
	}
}
