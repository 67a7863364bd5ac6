package roofline

import (
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/sim"
)

// The Section 2.5 formulas, written out per kernel as the paper states
// them. They are the test oracle the generalized engine must reproduce
// bit for bit.

// expectedCornerTurn is total words moved over the kernel bandwidth,
// with the issue-rate bound (a load and a store instruction per word)
// for Raw-style machines.
func expectedCornerTurn(t Throughput, spec cornerturn.Spec) uint64 {
	words := 2 * spec.Words()
	mem := sim.CeilDiv(words, uint64(t.KernelBandwidth()))
	compute := sim.CeilDiv(words, uint64(t.Compute))
	if compute > mem {
		return compute
	}
	return mem
}

// expectedCornerTurnStrided refines the corner-turn bound with the
// strided-access limit (VIRAM reads columns through four address
// generators).
func expectedCornerTurnStrided(t Throughput, spec cornerturn.Spec) uint64 {
	if t.StridedRW == 0 {
		return expectedCornerTurn(t, spec)
	}
	reads := sim.CeilDiv(spec.Words(), uint64(t.StridedRW))
	writes := sim.CeilDiv(spec.Words(), uint64(t.KernelBandwidth()))
	return reads + writes
}

// expectedCSLC is total real operations over peak compute: the working
// set fits on chip everywhere, so memory does not bind.
func expectedCSLC(t Throughput, spec cslc.Spec) (uint64, error) {
	counts, err := spec.TotalCounts()
	if err != nil {
		return 0, err
	}
	return sim.CeilDiv(counts.Flops(), uint64(t.Compute)), nil
}

// expectedBeamSteering is max(memory, compute) at three words and six
// integer operations per output.
func expectedBeamSteering(t Throughput, spec beamsteer.Spec) uint64 {
	mem := sim.CeilDiv(spec.Outputs()*spec.MemPerOutput(), uint64(t.KernelBandwidth()))
	intRate := t.IntCompute
	if intRate == 0 {
		intRate = t.Compute
	}
	comp := sim.CeilDiv(spec.Outputs()*spec.OpsPerOutput(), uint64(intRate))
	if comp > mem {
		return comp
	}
	return mem
}

// section25Workloads are 18 workloads well beyond the paper instance:
// corner-turn edges from 1 to 1024, mostly non-square; beam-steering
// arrays of 1, 13 and 1608 elements over 1 to 16 dwells; and CSLC
// instances across every radix, aux-channel count and sub-band count.
func section25Workloads() []core.Workload {
	edges := [][2]int{
		{1, 1}, {1, 1024}, {1024, 1}, {2, 3}, {7, 5}, {16, 16},
		{17, 33}, {64, 1000}, {96, 96}, {128, 512}, {255, 257}, {300, 300},
		{333, 999}, {512, 128}, {1000, 1000}, {1023, 1024}, {1024, 768}, {1024, 1024},
	}
	cslcs := []cslc.Spec{
		cslc.PaperSpec(fft.MixedRadix42),
		cslc.PaperSpec(fft.Radix2),
		{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
		{MainChannels: 2, AuxChannels: 0, Samples: 1024, SubBands: 15, FFTSize: 128, Radix: fft.MixedRadix42},
		{MainChannels: 1, AuxChannels: 2, Samples: 32, SubBands: 1, FFTSize: 32, Radix: fft.Radix2},
	}
	elements := []int{1, 13, 1608}
	dwells := []int{1, 3, 8, 16}
	ws := make([]core.Workload, len(edges))
	for i, e := range edges {
		ws[i] = core.Workload{
			CornerTurn: cornerturn.Spec{Rows: e[0], Cols: e[1], BlockSize: 16},
			CSLC:       cslcs[i%len(cslcs)],
			Beam: beamsteer.Spec{Elements: elements[i%len(elements)], Directions: 1 + 3*(i%2),
				Dwells: dwells[i%len(dwells)], ShiftBits: 2, Rounding: 2},
		}
	}
	return ws
}

// TestMatchesSection25Formulas pins the engine to the paper's Section
// 2.5 formulas: on every workload, for every Table 1 machine, the
// roofline bounds of the three paper kernels are bit-identical to the
// hand-written oracle.
func TestMatchesSection25Formulas(t *testing.T) {
	for i, w := range section25Workloads() {
		if err := w.Validate(); err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
		for _, tp := range Table1() {
			e, err := ForJob(tp.Machine, core.CornerTurn, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := expectedCornerTurn(tp, w.CornerTurn); e.PeakCycles != want {
				t.Errorf("workload %d %s corner-turn peak = %d, want %d", i, tp.Machine, e.PeakCycles, want)
			}
			if want := expectedCornerTurnStrided(tp, w.CornerTurn); e.Cycles != want {
				t.Errorf("workload %d %s corner-turn refined = %d, want %d", i, tp.Machine, e.Cycles, want)
			}

			e, err = ForJob(tp.Machine, core.CSLC, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := expectedCSLC(tp, w.CSLC)
			if err != nil {
				t.Fatal(err)
			}
			if e.Cycles != want || e.PeakCycles != want {
				t.Errorf("workload %d %s cslc = %d/%d, want %d", i, tp.Machine, e.PeakCycles, e.Cycles, want)
			}
			if e.Bound != "compute" {
				t.Errorf("workload %d %s cslc bound = %q, want compute", i, tp.Machine, e.Bound)
			}

			e, err = ForJob(tp.Machine, core.BeamSteering, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := expectedBeamSteering(tp, w.Beam); e.Cycles != want || e.PeakCycles != want {
				t.Errorf("workload %d %s beam-steering = %d/%d, want %d", i, tp.Machine, e.PeakCycles, e.Cycles, want)
			}
		}
	}
}

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	want := map[string][3]float64{
		"PPC":     {1, 1, 2},
		"AltiVec": {4, 1, 5},
		"VIRAM":   {8, 2, 8},
		"Imagine": {16, 2, 48},
		"Raw":     {16, 16, 16},
	}
	for _, r := range rows {
		w, ok := want[r.Machine]
		if !ok {
			t.Fatalf("unexpected machine %q", r.Machine)
		}
		if r.OnChipRW != w[0] || r.OffChipRW != w[1] || r.Compute != w[2] {
			t.Fatalf("%s: got %v/%v/%v, want %v", r.Machine, r.OnChipRW, r.OffChipRW, r.Compute, w)
		}
	}
	// The baselines run their kernels against off-chip memory and have
	// no special strided or integer paths.
	for _, name := range []string{"PPC", "AltiVec"} {
		r, err := ForMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.KernelMemoryOnChip || r.StridedRW != 0 || r.IntCompute != 0 {
			t.Fatalf("%s: unexpected research-architecture fields %+v", name, r)
		}
	}
}

func TestTable1Shared(t *testing.T) {
	// The table is hoisted to package level: repeated calls hand out the
	// same backing array instead of allocating.
	a, b := Table1(), Table1()
	if &a[0] != &b[0] {
		t.Fatal("Table1 allocated a fresh slice")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ForMachine("VIRAM") }); n != 0 {
		t.Fatalf("ForMachine allocates %v per call", n)
	}
}

// paperMeasured is Table 3 (and the extension tables) from
// EXPERIMENTS.md in kilocycles — the simulators' bit-deterministic
// outputs, rounded to the reporting unit.
var paperMeasured = map[string]map[core.KernelID]float64{
	"PPC":     {core.CornerTurn: 28098, core.CSLC: 12211, core.BeamSteering: 659, core.MatMul: 54592, PFB: 17046},
	"AltiVec": {core.CornerTurn: 24624, core.CSLC: 2498, core.BeamSteering: 350, core.MatMul: 12649, PFB: 4126},
	"VIRAM":   {core.CornerTurn: 592, core.CSLC: 480, core.BeamSteering: 44, core.MatMul: 4223, PFB: 583},
	"Imagine": {core.CornerTurn: 1257, core.CSLC: 182, core.BeamSteering: 78, core.MatMul: 2290, PFB: 150},
	"Raw":     {core.CornerTurn: 148, core.CSLC: 381, core.BeamSteering: 20, core.MatMul: 2757, PFB: 564},
}

// TestPaperCellsWithinEnvelope asserts every measured cell — the
// paper's Table 3 plus the extension kernels — lands inside its
// model-error envelope: at or above the analytic lower bound and below
// the per-machine overhead ceiling. This is the automated version of
// the paper's Table 4 validation.
func TestPaperCellsWithinEnvelope(t *testing.T) {
	w := core.PaperWorkload()
	for machine, kernels := range paperMeasured {
		for kernel, kcycles := range kernels {
			e, err := ForJob(machine, kernel, w)
			if err != nil {
				t.Fatalf("%s/%s: %v", machine, kernel, err)
			}
			ratio := kcycles * 1e3 / float64(e.Cycles)
			lo, hi := EnvelopeFor(machine, kernel)
			// The reporting unit rounds down up to 500 cycles; give the
			// lower edge that much slack for cells near the bound.
			loSlack := lo - 500/float64(e.Cycles)
			if ratio < loSlack || ratio > hi {
				t.Errorf("%s/%s: measured/model = %.3f outside [%.2f, %.2f] (model %d cycles)",
					machine, kernel, ratio, lo, hi, e.Cycles)
			}
		}
	}
}

func TestIntensityAndBounds(t *testing.T) {
	w := core.PaperWorkload()
	// Corner turn moves one word per op: intensity 1, memory-bound on
	// the bandwidth-starved machines.
	e, err := ForJob("Imagine", core.CornerTurn, w)
	if err != nil {
		t.Fatal(err)
	}
	if e.Intensity != 1.0 || e.Bound != "memory" {
		t.Fatalf("Imagine corner turn: intensity %.2f bound %s", e.Intensity, e.Bound)
	}
	// MatMul reuses operands ~170x: compute-bound everywhere.
	for _, tp := range Table1() {
		e, err := ForJob(tp.Machine, core.MatMul, w)
		if err != nil {
			t.Fatal(err)
		}
		if e.Bound != "compute" {
			t.Errorf("%s matmul bound = %s, want compute", tp.Machine, e.Bound)
		}
		if e.Intensity < 100 {
			t.Errorf("%s matmul intensity = %.1f, want > 100", tp.Machine, e.Intensity)
		}
	}
}

func TestForJobErrors(t *testing.T) {
	w := core.PaperWorkload()
	if _, err := ForJob("G5", core.CornerTurn, w); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := ForJob("VIRAM", core.KernelID("ray-trace"), w); err == nil {
		t.Fatal("kernel without metadata accepted")
	}
}

func TestGrid(t *testing.T) {
	w := core.PaperWorkload()
	measured := map[string]map[core.KernelID]uint64{
		"VIRAM": {core.CornerTurn: 592_137},
	}
	cells, err := Grid(w, measured)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(Table1()) * len(GridKernels())
	if len(cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(cells), wantCells)
	}
	var simulated int
	for _, c := range cells {
		if c.Cycles == 0 {
			t.Fatalf("%s/%s: zero prediction", c.Machine, c.Kernel)
		}
		if !c.Simulated {
			if c.SimCycles != 0 || c.ErrorRatio != 0 {
				t.Fatalf("%s/%s: model-only cell carries simulation fields", c.Machine, c.Kernel)
			}
			continue
		}
		simulated++
		if c.Machine != "VIRAM" || c.Kernel != core.CornerTurn {
			t.Fatalf("unexpected simulated cell %s/%s", c.Machine, c.Kernel)
		}
		if !c.WithinEnvelope || c.ErrorRatio < 1.0 || c.ErrorRatio > 2.0 {
			t.Fatalf("VIRAM corner turn ratio %.3f, envelope [%v, %v]", c.ErrorRatio, c.EnvelopeLo, c.EnvelopeHi)
		}
	}
	if simulated != 1 {
		t.Fatalf("%d simulated cells, want 1", simulated)
	}
	// Grid order: machines in Table 1 order, kernels paper-first.
	if cells[0].Machine != "PPC" || cells[0].Kernel != core.CornerTurn {
		t.Fatalf("first cell %s/%s", cells[0].Machine, cells[0].Kernel)
	}
}

// TestEstimateCheap pins the hot-path property the estimate tier is
// built on: after the first call warms the shared FFT-plan cache, an
// estimate is pure arithmetic with at most a handful of allocations.
func TestEstimateCheap(t *testing.T) {
	w := core.PaperWorkload()
	if _, err := ForJob("VIRAM", core.CSLC, w); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := ForJob("VIRAM", core.CSLC, w); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Fatalf("estimate allocates %v per call", n)
	}
}
