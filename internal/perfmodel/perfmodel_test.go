// Package perfmodel holds no code: the Section 2.5 peak-throughput
// model lives in internal/roofline. These tests pin that model to the
// bounds the paper works through for its instance — 1M corner-turn
// elements (2M word transfers), the CSLC and 51,456 beam-steering
// outputs — which are Table 4's peak column.
package perfmodel_test

import (
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/roofline"
)

// paperBound is the model's estimate for one paper-workload cell.
func paperBound(t *testing.T, machine string, k core.KernelID) roofline.Estimate {
	t.Helper()
	e, err := roofline.ForJob(machine, k, core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestForMachine(t *testing.T) {
	if _, err := roofline.ForMachine("VIRAM"); err != nil {
		t.Fatal(err)
	}
	if _, err := roofline.ForMachine("G5"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestExpectedCornerTurn(t *testing.T) {
	const words = 2 * 1024 * 1024
	for _, c := range []struct {
		machine string
		want    uint64
	}{
		// VIRAM: 2M words at 8/cycle on chip = 262,144 cycles (the
		// paper: measured is "about half of what would have been
		// expected").
		{"VIRAM", words / 8},
		// Imagine: 2M words at 2/cycle off chip = 1,048,576 cycles.
		{"Imagine", words / 2},
		// Raw: issue-bound at 16 instructions/cycle = 131,072 cycles.
		{"Raw", words / 16},
	} {
		if got := paperBound(t, c.machine, core.CornerTurn).PeakCycles; got != c.want {
			t.Errorf("%s expected = %d, want %d", c.machine, got, c.want)
		}
	}
}

func TestExpectedCornerTurnStrided(t *testing.T) {
	const n = 1024 * 1024
	// Strided reads at 4/cycle + sequential writes at 8/cycle.
	if got, want := paperBound(t, "VIRAM", core.CornerTurn).Cycles, uint64(n/4+n/8); got != want {
		t.Fatalf("VIRAM strided expected = %d, want %d", got, want)
	}
	// Machines without a strided limit fall back to the plain bound.
	for _, name := range []string{"Imagine", "Raw"} {
		if e := paperBound(t, name, core.CornerTurn); e.Cycles != e.PeakCycles {
			t.Fatalf("%s strided bound %d should equal plain bound %d", name, e.Cycles, e.PeakCycles)
		}
	}
}

func TestExpectedCSLCOrdering(t *testing.T) {
	var prev uint64
	// Higher compute throughput gives a lower bound: Imagine < Raw < VIRAM.
	for i, name := range []string{"Imagine", "Raw", "VIRAM"} {
		got := paperBound(t, name, core.CSLC).Cycles
		if i > 0 && got <= prev {
			t.Fatalf("%s bound %d not above previous %d", name, got, prev)
		}
		prev = got
	}
}

func TestExpectedBeamSteering(t *testing.T) {
	const outputs = 51456
	for _, c := range []struct {
		machine string
		want    uint64
	}{
		// VIRAM: memory-bound, 3 words per output at 8 words/cycle.
		{"VIRAM", 3 * outputs / 8},
		// Raw: compute-bound (6 ops at 16/cycle > 3 words at 16/cycle).
		{"Raw", 6 * outputs / 16},
	} {
		if e := paperBound(t, c.machine, core.BeamSteering); e.PeakCycles != c.want || e.Cycles != c.want {
			t.Errorf("%s beam steering bound = %d/%d, want %d", c.machine, e.PeakCycles, e.Cycles, c.want)
		}
	}
}
