package core

import (
	"errors"
	"math"
	"testing"

	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// fakeMachine returns canned results, for framework tests. It declares
// 16x16 blocks and radix 2, or with badProof a transposer of no rows,
// which fails its proof.
type fakeMachine struct {
	name     string
	clock    float64
	cycles   map[KernelID]uint64
	fail     bool
	badProof bool
}

func (f *fakeMachine) Name() string { return f.name }
func (f *fakeMachine) Params() Params {
	return Params{ClockMHz: f.clock, ALUs: 1, PeakGFLOPS: 1}
}

func (f *fakeMachine) Formulation(Workload) Formulation {
	if f.badProof {
		return Formulation{CornerTurn: cornerturn.Transposer{}, CSLC: fft.Radix2}
	}
	return Formulation{CornerTurn: cornerturn.Transposer{Block: 16}, CSLC: fft.Radix2}
}

func (f *fakeMachine) run(k KernelID) (Result, error) {
	if f.fail {
		return Result{}, errors.New("boom")
	}
	return Result{Machine: f.name, Kernel: k, Cycles: f.cycles[k], Ops: 1, Words: 1}, nil
}

func (f *fakeMachine) RunCornerTurn(cornerturn.Spec) (Result, error)  { return f.run(CornerTurn) }
func (f *fakeMachine) RunCSLC(cslc.Spec) (Result, error)              { return f.run(CSLC) }
func (f *fakeMachine) RunBeamSteering(beamsteer.Spec) (Result, error) { return f.run(BeamSteering) }

func twoMachines() []Machine {
	return []Machine{
		&fakeMachine{name: "base", clock: 1000, cycles: map[KernelID]uint64{
			CornerTurn: 1000, CSLC: 2000, BeamSteering: 100}},
		&fakeMachine{name: "fast", clock: 200, cycles: map[KernelID]uint64{
			CornerTurn: 100, CSLC: 100, BeamSteering: 10}},
	}
}

func TestKernelsAndTitles(t *testing.T) {
	ks := Kernels()
	if len(ks) != 3 {
		t.Fatalf("Kernels() = %v", ks)
	}
	if CornerTurn.Title() != "Corner Turn" || CSLC.Title() != "CSLC" {
		t.Fatal("kernel titles wrong")
	}
	if KernelID("x").Title() != "x" {
		t.Fatal("unknown kernel title fallback")
	}
}

func TestPaperWorkloadValid(t *testing.T) {
	if err := PaperWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PaperWorkload()
	bad.Beam.Elements = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	m := twoMachines()[0]
	w := PaperWorkload()
	for _, k := range Kernels() {
		r, err := Run(m, k, w)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kernel != k || !r.Verified {
			t.Fatalf("dispatched kernel %s (verified %v), want %s verified", r.Kernel, r.Verified, k)
		}
	}
	if _, err := Run(m, KernelID("nope"), w); err == nil {
		t.Fatal("unknown kernel dispatched")
	}
}

func TestRunStudyAndSpeedups(t *testing.T) {
	sr, err := RunStudy(twoMachines(), PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.SpeedupCycles("base", "fast", CornerTurn); got != 10 {
		t.Fatalf("cycle speedup = %v, want 10", got)
	}
	// Time speedup: base at 1000 MHz (1000 cycles = 1 us), fast at 200
	// MHz (100 cycles = 0.5 us): speedup 2.
	if got := sr.SpeedupTime("base", "fast", CornerTurn); math.Abs(got-2) > 1e-12 {
		t.Fatalf("time speedup = %v, want 2", got)
	}
	if got := sr.BestMachine(CSLC); got != "fast" {
		t.Fatalf("best = %s", got)
	}
	// Geometric mean over speedups 10, 20, 10 = cbrt(2000) ~ 12.6.
	g := sr.GeometricMeanSpeedup("base", "fast", false)
	if math.Abs(g-math.Cbrt(2000)) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
}

func TestRunStudyErrors(t *testing.T) {
	if _, err := RunStudy(nil, PaperWorkload()); err == nil {
		t.Fatal("empty machine list accepted")
	}
	failing := []Machine{&fakeMachine{name: "bad", clock: 1, fail: true}}
	if _, err := RunStudy(failing, PaperWorkload()); err == nil {
		t.Fatal("failing machine accepted")
	}
	unproved := []Machine{&fakeMachine{name: "u", clock: 1, badProof: true,
		cycles: map[KernelID]uint64{CornerTurn: 1, CSLC: 1, BeamSteering: 1}}}
	if _, err := RunStudy(unproved, PaperWorkload()); err == nil {
		t.Fatal("a machine whose declared formulation fails its proof was accepted")
	}
	unverified := map[string]map[KernelID]Result{"u": {
		CornerTurn: {Cycles: 1}, CSLC: {Cycles: 1, Verified: true}, BeamSteering: {Cycles: 1, Verified: true}}}
	if _, err := NewStudyResults(unproved, PaperWorkload(), unverified); err == nil {
		t.Fatal("unverified result accepted")
	}
	bad := PaperWorkload()
	bad.CornerTurn.Rows = 0
	if _, err := RunStudy(twoMachines(), bad); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Cycles: 2000, Ops: 4000}
	if r.KCycles() != 2 {
		t.Fatalf("KCycles = %v", r.KCycles())
	}
	if r.OpsPerCycle() != 2 {
		t.Fatalf("OpsPerCycle = %v", r.OpsPerCycle())
	}
	if (Result{}).OpsPerCycle() != 0 {
		t.Fatal("zero-cycle OpsPerCycle should be 0")
	}
	// 2000 cycles at 200 MHz = 10 us = 0.01 ms.
	if ms := r.TimeMS(200); math.Abs(ms-0.01) > 1e-12 {
		t.Fatalf("TimeMS = %v", ms)
	}
}

func TestResultLookupMiss(t *testing.T) {
	sr, err := RunStudy(twoMachines(), PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sr.Result("nope", CSLC); ok {
		t.Fatal("lookup of unknown machine succeeded")
	}
	if _, ok := sr.Result("base", KernelID("nope")); ok {
		t.Fatal("lookup of unknown kernel succeeded")
	}
	if names := sr.MachineNames(); len(names) != 2 || names[0] != "base" {
		t.Fatalf("MachineNames = %v", names)
	}
}

func TestSpeedupPanicsOnUnknownMachine(t *testing.T) {
	sr, err := RunStudy(twoMachines(), PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SpeedupTime with unknown machine did not panic")
		}
	}()
	sr.SpeedupTime("base", "nope", CSLC)
}

// TestProveRemembersSuccessesOnly proves a corner turn twice under one
// transposer (a miss, then a hit) and once more with another block size
// in the spec, which the check does not read (a hit). A transposer of
// no rows then fails twice with the check's own error, each call a miss
// that stores nothing.
func TestProveRemembersSuccessesOnly(t *testing.T) {
	w := Workload{CornerTurn: cornerturn.Spec{Rows: 24, Cols: 40, BlockSize: 8}}
	f := Formulation{CornerTurn: cornerturn.Transposer{Block: 8}}
	verdicts.Purge()
	hits0, misses0 := verdicts.Counters()
	for _, block := range []int{8, 8, 4} {
		w.CornerTurn.BlockSize = block
		if err := Prove(CornerTurn, w, f); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := verdicts.Counters(); hits-hits0 != 2 || misses-misses0 != 1 {
		t.Fatalf("three proofs of one key: %d hits, %d misses; want 2 and 1", hits-hits0, misses-misses0)
	}
	stored := verdicts.Len()
	bad := Formulation{CornerTurn: cornerturn.Transposer{}}
	want := cornerturn.VerifySynthetic(24, 40, bad.CornerTurn.Transpose)
	for i := 0; i < 2; i++ {
		if err := Prove(CornerTurn, w, bad); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("failing proof %d: %v, want the check's %v", i, err, want)
		}
	}
	if hits, misses := verdicts.Counters(); hits-hits0 != 2 || misses-misses0 != 3 || verdicts.Len() != stored {
		t.Fatalf("two failed proofs: %d hits, %d misses, %d entries (%d before); want 2, 3 and nothing stored",
			hits-hits0, misses-misses0, verdicts.Len(), stored)
	}
}
