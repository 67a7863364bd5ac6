package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sigkern/internal/core"
)

// The committed reference must agree with the repository's benchmark
// baseline, which records the paper cells in kcycles.
func TestPaperReferenceMatchesBaseline(t *testing.T) {
	cells, err := paperCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 15 {
		t.Fatalf("%d reference cells, want 15", len(cells))
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCH_PR10.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	families := map[core.KernelID]string{core.CornerTurn: "BenchmarkTable3CornerTurn", core.CSLC: "BenchmarkTable3CSLC"}
	checked := 0
	for _, c := range cells {
		fam, ok := families[c.Kernel]
		if !ok {
			continue // the baseline does not gate beam steering
		}
		kc, ok := base.Benchmarks[fam+"/"+c.Machine]["sim-kcycles"]
		if !ok {
			t.Fatalf("no baseline for %s/%s", fam, c.Machine)
		}
		// The baseline keeps four significant digits.
		if got := float64(c.Cycles) / 1e3; math.Abs(got-kc) > 0.0005*kc+0.05 {
			t.Errorf("%s/%s: reference %d cycles, baseline %g kcycles", c.Machine, c.Kernel, c.Cycles, kc)
		}
		checked++
	}
	if checked != 10 {
		t.Fatalf("checked %d cells against the baseline, want 10", checked)
	}
}

// BENCHMARK.json and the harness agree on the workloads and metrics,
// and the file keeps to the benchmark's format limits.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: spec}
	for _, w := range spec.Workloads {
		b.workload = w.Name
		if _, err := b.definition(); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		if moves[m.Name] == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
	}
	for n := range moves {
		if !seen[n] {
			t.Errorf("moves names %s, which BENCHMARK.json does not list", n)
		}
	}
}
