package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the names, units, directions and regress
// bounds every later change is judged on. The benchmark prints exactly
// the metrics it declares.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark contract (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return &s, nil
}

// checkWorkloads refuses a spec whose workload list differs from the
// code's: a run under the wrong name would be compared with the wrong
// baseline.
func (s *benchSpec) checkWorkloads() error {
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("spec declares %d workloads, the benchmark implements %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("spec workload %d is %q, the benchmark implements %q", i, w.Name, workloads[i].name)
		}
	}
	return nil
}
