package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sigkern/internal/core"
)

// benchmarkSpec is BENCHMARK.json at the repository root: the workloads
// and the metrics every run must report, with each end-to-end metric's
// regression bound. The harness reads it so the metric list lives in
// one place.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchmarkSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// paperCell is one Table 3 cell with its exact simulated cycle count.
type paperCell struct {
	Machine string        `json:"machine"`
	Kernel  core.KernelID `json:"kernel"`
	Cycles  uint64        `json:"cycles"`
}

// paperCyclesJSON is the correctness reference: the exact cycles of the
// 15 paper cells (Table 3 in cycles rather than kcycles).
//
//go:embed testdata/paper_cycles.json
var paperCyclesJSON []byte

func paperCells() ([]paperCell, error) {
	var cells []paperCell
	if err := json.Unmarshal(paperCyclesJSON, &cells); err != nil {
		return nil, fmt.Errorf("paper_cycles.json: %w", err)
	}
	return cells, nil
}

// paperRef indexes the reference by machine and kernel.
type paperRef map[string]map[core.KernelID]uint64

func newPaperRef(cells []paperCell) paperRef {
	ref := make(paperRef)
	for _, c := range cells {
		if ref[c.Machine] == nil {
			ref[c.Machine] = make(map[core.KernelID]uint64)
		}
		ref[c.Machine][c.Kernel] = c.Cycles
	}
	return ref
}
