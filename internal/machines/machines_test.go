// Cross-machine study tests: these assert the paper's headline shape —
// which architecture wins each kernel, by roughly what factor — using the
// full simulator stack.
package machines

import (
	"bytes"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/report"
)

// runStudy executes the full paper workload once per test binary.
var studyCache *core.StudyResults

func study(t *testing.T) *core.StudyResults {
	t.Helper()
	if studyCache != nil {
		return studyCache
	}
	sr, err := core.RunStudy(All(), core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	studyCache = sr
	return sr
}

func TestAllMachinesPresent(t *testing.T) {
	names := map[string]bool{}
	for _, m := range All() {
		names[m.Name()] = true
	}
	for _, want := range []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"} {
		if !names[want] {
			t.Fatalf("machine %s missing from registry", want)
		}
	}
	if len(Research()) != 3 {
		t.Fatalf("Research() returned %d machines", len(Research()))
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("VIRAM")
	if err != nil || m.Name() != "VIRAM" {
		t.Fatalf("ByName(VIRAM) = %v, %v", m, err)
	}
	if _, err := ByName("Pentium"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// TestTable3Ordering asserts the paper's per-kernel winners:
// corner turn: Raw < VIRAM < Imagine; CSLC: Imagine < Raw < VIRAM;
// beam steering: Raw < VIRAM < Imagine — all far below the baseline.
func TestTable3Ordering(t *testing.T) {
	sr := study(t)
	order := map[core.KernelID][]string{
		core.CornerTurn:   {"Raw", "VIRAM", "Imagine", "AltiVec", "PPC"},
		core.CSLC:         {"Imagine", "Raw", "VIRAM", "AltiVec", "PPC"},
		core.BeamSteering: {"Raw", "VIRAM", "Imagine", "AltiVec", "PPC"},
	}
	for k, names := range order {
		var prev uint64
		for i, name := range names {
			r, ok := sr.Result(name, k)
			if !ok {
				t.Fatalf("missing %s/%s", name, k)
			}
			if i > 0 && r.Cycles <= prev {
				t.Errorf("%s: %s (%d cycles) should be slower than %s (%d)",
					k, name, r.Cycles, names[i-1], prev)
			}
			prev = r.Cycles
		}
		if got := sr.BestMachine(k); got != names[0] {
			t.Errorf("%s: best machine = %s, want %s", k, got, names[0])
		}
	}
}

// TestResearchChipsBeatBaselineBy10xInCycles mirrors the paper's
// conclusion that the research processors provide order-of-magnitude
// cycle-count speedups over the conventional baseline.
func TestResearchChipsBeatBaselineBy10xInCycles(t *testing.T) {
	sr := study(t)
	for _, k := range core.Kernels() {
		for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
			s := sr.SpeedupCycles(Baseline, name, k)
			if s < 3 {
				t.Errorf("%s on %s: cycle speedup %.1f vs %s, want >= 3", k, name, s, Baseline)
			}
		}
		// The per-kernel winner is at least 10x in cycles (paper: "all
		// three architectures provided speedups of more than 20" on the
		// corner turn; CSLC and beam steering winners exceed 25x and 19x).
		best := sr.BestMachine(k)
		if s := sr.SpeedupCycles(Baseline, best, k); s < 10 {
			t.Errorf("%s winner %s: speedup %.1f, want >= 10", k, best, s)
		}
	}
}

// TestClockAdjustedSpeedupsShrink: Figure 9's speedups are smaller than
// Figure 8's because the research chips run at 200-300 MHz against the
// 1 GHz G4.
func TestClockAdjustedSpeedupsShrink(t *testing.T) {
	sr := study(t)
	for _, k := range core.Kernels() {
		for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
			cyc := sr.SpeedupCycles(Baseline, name, k)
			tm := sr.SpeedupTime(Baseline, name, k)
			if tm >= cyc {
				t.Errorf("%s on %s: time speedup %.2f not below cycle speedup %.2f",
					k, name, tm, cyc)
			}
			// Even in wall-clock terms the research chips win every kernel
			// in the paper's Figure 9.
			if tm < 1 {
				t.Errorf("%s on %s: wall-clock slower than baseline (%.2f)", k, name, tm)
			}
		}
	}
}

// TestPaperCycleBands pins each simulated Table 3 entry to a band around
// the paper's published value (generous: the substrate is ours, not the
// authors' testbeds).
func TestPaperCycleBands(t *testing.T) {
	sr := study(t)
	paper := map[string]map[core.KernelID]float64{ // kilocycles
		"PPC":     {core.CornerTurn: 34250, core.CSLC: 29013, core.BeamSteering: 730},
		"AltiVec": {core.CornerTurn: 29288, core.CSLC: 4931, core.BeamSteering: 364},
		"VIRAM":   {core.CornerTurn: 554, core.CSLC: 424, core.BeamSteering: 35},
		"Imagine": {core.CornerTurn: 1439, core.CSLC: 196, core.BeamSteering: 87},
		"Raw":     {core.CornerTurn: 146, core.CSLC: 357, core.BeamSteering: 19},
	}
	// Allowed deviation factor per machine: the G4 CSLC measurement
	// embeds code overheads our model cannot justify (see EXPERIMENTS.md).
	maxFactor := map[string]float64{
		"PPC": 3.0, "AltiVec": 2.2, "VIRAM": 1.6, "Imagine": 1.5, "Raw": 1.5,
	}
	for name, kernels := range paper {
		for k, want := range kernels {
			r, ok := sr.Result(name, k)
			if !ok {
				t.Fatalf("missing %s/%s", name, k)
			}
			got := r.KCycles()
			f := got / want
			if f < 1 {
				f = 1 / f
			}
			if f > maxFactor[name] {
				t.Errorf("%s/%s: %0.f kcycles vs paper %0.f (factor %.2f > %.2f)",
					name, k, got, want, f, maxFactor[name])
			}
		}
	}
}

// TestGeometricMeanSpeedups sanity-checks the aggregate view.
func TestGeometricMeanSpeedups(t *testing.T) {
	sr := study(t)
	for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
		g := sr.GeometricMeanSpeedup(Baseline, name, false)
		if g < 5 {
			t.Errorf("%s geometric-mean cycle speedup = %.1f, want >= 5", name, g)
		}
	}
}

// TestEveryResultVerifiedAndAccounted checks the study invariants: all
// results verified functionally, nonzero cycles, breakdown totals close
// to the cycle count.
func TestEveryResultVerifiedAndAccounted(t *testing.T) {
	sr := study(t)
	for _, name := range sr.MachineNames() {
		for _, k := range core.Kernels() {
			r, _ := sr.Result(name, k)
			if !r.Verified {
				t.Errorf("%s/%s not verified", name, k)
			}
			if r.Cycles == 0 || r.Ops == 0 || r.Words == 0 {
				t.Errorf("%s/%s has zero fields: %+v", name, k, r)
			}
			total := r.Breakdown.Total()
			if total == 0 {
				t.Errorf("%s/%s has empty breakdown", name, k)
			}
		}
	}
}

// TestReportRendering drives the full report path over real results.
func TestReportRendering(t *testing.T) {
	sr := study(t)
	var buf bytes.Buffer
	if err := report.RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderTable2(&buf, sr.Machines()); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderTable3(&buf, sr); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderTable4(&buf, sr); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderFigure8(&buf, sr, Baseline); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderFigure9(&buf, sr, Baseline); err != nil {
		t.Fatal(err)
	}
	if err := report.RenderBreakdowns(&buf, sr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 8", "Figure 9", "Corner Turn", "CSLC", "Beam Steering",
		"VIRAM", "Imagine", "Raw", "AltiVec",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
	var csv bytes.Buffer
	if err := report.StudyCSV(&csv, sr); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 16 {
		t.Errorf("CSV has %d lines, want 16 (header + 15 results)", lines)
	}
}

// TestNamesMatchAll pins the static name list (used for cheap
// validation on the submission hot path) to the constructed machines.
func TestNamesMatchAll(t *testing.T) {
	ms := All()
	names := Names()
	if len(ms) != len(names) {
		t.Fatalf("Names() has %d entries, All() has %d", len(names), len(ms))
	}
	for i, m := range ms {
		if m.Name() != names[i] {
			t.Errorf("Names()[%d] = %q, All()[%d].Name() = %q", i, names[i], i, m.Name())
		}
		if err := Valid(names[i]); err != nil {
			t.Errorf("Valid(%q): %v", names[i], err)
		}
		got, err := ByName(names[i])
		if err != nil {
			t.Fatalf("ByName(%q): %v", names[i], err)
		}
		if got.Name() != names[i] {
			t.Errorf("ByName(%q).Name() = %q", names[i], got.Name())
		}
	}
	if err := Valid("Cray"); err == nil {
		t.Error("Valid accepted an unknown machine")
	}
	if _, err := ByName("Cray"); err == nil {
		t.Error("ByName accepted an unknown machine")
	}
}

// TestDeclaredFormulations pins what each machine declares it times, so
// what core.Run proves is the computation the cycles model: the
// corner-turn transposer at the paper's 1,024 columns and the matrix
// sweep's 2,048, and the radix of the paper's 128-point CSLC. The G4
// rows block by the spec's tile edge, VIRAM walks columns (one strip of
// every row), Imagine streams the strips it times (four rows once eight
// no longer fit its SRF double-buffered), and Raw blocks by 64.
func TestDeclaredFormulations(t *testing.T) {
	cases := []struct {
		machine string
		n       int
		ct      cornerturn.Transposer
		radix   fft.Radix
	}{
		{"PPC", 1024, cornerturn.Transposer{Block: 16}, fft.Radix2},
		{"PPC", 2048, cornerturn.Transposer{Block: 16}, fft.Radix2},
		{"AltiVec", 1024, cornerturn.Transposer{Block: 16}, fft.Radix2},
		{"AltiVec", 2048, cornerturn.Transposer{Block: 16}, fft.Radix2},
		{"VIRAM", 1024, cornerturn.Transposer{Strip: 1024}, fft.MixedRadix42},
		{"VIRAM", 2048, cornerturn.Transposer{Strip: 2048}, fft.MixedRadix42},
		{"Imagine", 1024, cornerturn.Transposer{Strip: 8}, fft.MixedRadix42},
		{"Imagine", 2048, cornerturn.Transposer{Strip: 4}, fft.MixedRadix42},
		{"Raw", 1024, cornerturn.Transposer{Block: 64}, fft.Radix2},
		{"Raw", 2048, cornerturn.Transposer{Block: 64}, fft.Radix2},
	}
	for _, c := range cases {
		m, err := ByName(c.machine)
		if err != nil {
			t.Fatal(err)
		}
		w := core.PaperWorkload()
		w.CornerTurn.Rows, w.CornerTurn.Cols = c.n, c.n
		f := m.Formulation(w)
		if f.CornerTurn != c.ct || f.CSLC != c.radix {
			t.Errorf("%s at %d columns declares %+v and %v, want %+v and %v", c.machine, c.n, f.CornerTurn, f.CSLC, c.ct, c.radix)
		}
	}
}
