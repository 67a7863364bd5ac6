package study

import (
	"strings"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/machines"
)

func TestMatrixSizesScaleRoughlyQuadratically(t *testing.T) {
	pts, err := Sweeper{}.MatrixSizes([]int{256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, name := range []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"} {
		small := pts[0].Cycles[name]
		big := pts[1].Cycles[name]
		if small == 0 || big == 0 {
			t.Fatalf("%s: missing cycles", name)
		}
		ratio := float64(big) / float64(small)
		// 4x the elements: between 3x and 6x the cycles (startup effects
		// and cache behaviour bend it).
		if ratio < 3 || ratio > 6 {
			t.Errorf("%s: 512/256 cycle ratio = %.2f, want ~4", name, ratio)
		}
	}
}

func TestVIRAMAddrGensMonotone(t *testing.T) {
	pts, err := Sweeper{}.VIRAMAddrGens([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycles["VIRAM"] >= pts[i-1].Cycles["VIRAM"] {
			t.Fatalf("more address generators did not help: %v -> %v",
				pts[i-1].Cycles, pts[i].Cycles)
		}
	}
}

func TestRawTilesPerimeterVsArea(t *testing.T) {
	pts, err := Sweeper{}.RawTiles([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	c2 := pts[0].Cycles["Raw"]
	c4 := pts[1].Cycles["Raw"]
	c8 := pts[2].Cycles["Raw"]
	// Issue-bound region: 4x4 is much faster than 2x2.
	if float64(c2)/float64(c4) < 2.5 {
		t.Fatalf("2x2 (%d) to 4x4 (%d) gain too small", c2, c4)
	}
	// Port-bound region: 8x8 does NOT extend the scaling — ports grow
	// with the perimeter while tiles grow with the area.
	if c8 < c4 {
		t.Fatalf("8x8 (%d) beat 4x4 (%d); the corner turn should be port-bound", c8, c4)
	}
}

func TestImagineDescriptorsNeverHurt(t *testing.T) {
	pts, err := Sweeper{}.ImagineDescriptors([]int{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycles["Imagine"] > pts[i-1].Cycles["Imagine"] {
			t.Fatalf("more descriptors slowed the corner turn: %v -> %v",
				pts[i-1].Cycles, pts[i].Cycles)
		}
	}
}

func TestBeamDwellsLinear(t *testing.T) {
	pts, err := Sweeper{}.BeamDwells([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, c4 := range pts[0].Cycles {
		c8 := pts[1].Cycles[name]
		ratio := float64(c8) / float64(c4)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("%s: 8/4 dwell ratio = %.2f, want ~2 (linear)", name, ratio)
		}
	}
}

func TestEqualClockSpeedups(t *testing.T) {
	sr, err := core.RunStudy(machines.All(), core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	eq, err := EqualClockSpeedups(sr, machines.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(eq) != 4 { // PPC, VIRAM, Imagine, Raw
		t.Fatalf("%d machines in equal-clock view", len(eq))
	}
	// At equal clock, every research chip beats the baseline on every
	// kernel — the paper's technology-scaling conclusion.
	for _, name := range []string{"VIRAM", "Imagine", "Raw"} {
		for _, k := range core.Kernels() {
			if eq[name][k] <= 1 {
				t.Errorf("%s/%s equal-clock speedup %.2f <= 1", name, k, eq[name][k])
			}
		}
	}
}

func TestCSLCFFTSizeCrossover(t *testing.T) {
	// The paper notes that "the small size of the FFT reduces the amount
	// of software pipelining and increases start-up overheads" on
	// Imagine. The sweep exposes the crossover: at 32-point transforms
	// the per-kernel dispatch cost hands the win to VIRAM (which
	// vectorizes across bands, indifferent to transform length); from the
	// paper's 128-point size upward, Imagine leads.
	pts, err := Sweeper{}.CSLCFFTSizes([]int{32, 128, 512})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Cycles["VIRAM"] >= pts[0].Cycles["Imagine"] {
		t.Errorf("32-pt: VIRAM (%d) should beat startup-bound Imagine (%d)",
			pts[0].Cycles["VIRAM"], pts[0].Cycles["Imagine"])
	}
	for _, p := range pts[1:] {
		if p.Cycles["Imagine"] >= p.Cycles["VIRAM"] {
			t.Errorf("%s: Imagine (%d) not ahead of VIRAM (%d)",
				p.Label, p.Cycles["Imagine"], p.Cycles["VIRAM"])
		}
	}
	// Longer transforms amortize per-FFT startup on Imagine: the 512-pt
	// point costs less than the 32-pt point despite equal sample counts.
	if pts[2].Cycles["Imagine"] >= pts[0].Cycles["Imagine"] {
		t.Errorf("Imagine startup not amortized: %v", pts)
	}
}

func TestSweeperConcurrencyMatchesSerial(t *testing.T) {
	serial, err := Sweeper{Concurrency: 1}.BeamDwells([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweeper{Concurrency: 8}.BeamDwells([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	// Whichever worker runs a cell, concurrency must not change a
	// single cycle count.
	for i := range serial {
		if serial[i].Label != parallel[i].Label {
			t.Fatalf("point %d: label %q vs %q", i, serial[i].Label, parallel[i].Label)
		}
		for name, c := range serial[i].Cycles {
			if pc := parallel[i].Cycles[name]; pc != c {
				t.Errorf("%s @ %s: serial %d cycles, parallel %d", name, serial[i].Label, c, pc)
			}
		}
	}
}

// TestSweepInvalidSpecs: an invalid sweep value fails the whole sweep
// before any cell runs — a valid value ahead of it included — and the
// error names the offending cell's label and machine.
func TestSweepInvalidSpecs(t *testing.T) {
	tests := []struct {
		name string
		run  func(Sweeper) ([]Point, error)
		want string
	}{
		{"non-power-of-two FFT size", func(sw Sweeper) ([]Point, error) { return sw.CSLCFFTSizes([]int{64, 100}) }, "PPC @ 100-pt"},
		{"FFT size below minimum", func(sw Sweeper) ([]Point, error) { return sw.CSLCFFTSizes([]int{64, 1}) }, "PPC @ 1-pt"},
		{"zero dwells", func(sw Sweeper) ([]Point, error) { return sw.BeamDwells([]int{1, 0}) }, "PPC @ 0:"},
		{"negative dwells", func(sw Sweeper) ([]Point, error) { return sw.BeamDwells([]int{1, -3}) }, "PPC @ -3:"},
		{"zero matrix edge", func(sw Sweeper) ([]Point, error) { return sw.MatrixSizes([]int{64, 0}) }, "PPC @ 0x0:"},
		{"negative matrix edge", func(sw Sweeper) ([]Point, error) { return sw.MatrixSizes([]int{64, -16}) }, "PPC @ -16x-16:"},
		{"zero address generators", func(sw Sweeper) ([]Point, error) { return sw.VIRAMAddrGens([]int{2, 0}) }, "VIRAM @ 0:"},
		{"zero mesh edge", func(sw Sweeper) ([]Point, error) { return sw.RawTiles([]int{2, 0}) }, "Raw @ 0x0:"},
		{"one descriptor register", func(sw Sweeper) ([]Point, error) { return sw.ImagineDescriptors([]int{2, 1}) }, "Imagine @ 1:"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ran := 0
			sw := Sweeper{Concurrency: 2, OnCell: func(string, string, core.Result, time.Duration) { ran++ }}
			pts, err := tc.run(sw)
			if err == nil {
				t.Fatalf("want error, got %d points", len(pts))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the cell %q", err, tc.want)
			}
			if ran != 0 {
				t.Errorf("%d cell(s) ran before the invalid value failed the sweep", ran)
			}
		})
	}
}

func TestMachineColumnsPaperOrder(t *testing.T) {
	pts := []Point{{
		Label: "x",
		Cycles: map[string]uint64{
			"Raw": 1, "PPC": 1, "VIRAM": 1, "Imagine": 1, "AltiVec": 1,
		},
	}}
	got := MachineColumns(pts)
	want := []string{"PPC", "AltiVec", "VIRAM", "Imagine", "Raw"}
	if len(got) != len(want) {
		t.Fatalf("columns %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("columns %v, want %v", got, want)
		}
	}
	// Names outside the study sort alphabetically after the paper order.
	pts[0].Cycles["Zeta"] = 1
	pts[0].Cycles["Alpha"] = 1
	got = MachineColumns(pts)
	if got[5] != "Alpha" || got[6] != "Zeta" {
		t.Fatalf("extra columns not sorted: %v", got)
	}
}
