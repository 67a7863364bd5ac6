// Package study implements the design-space sweeps around the paper's
// fixed measurement points: the excursions its analysis gestures at
// (address-generator counts, tile counts, descriptor registers, dwell
// density, matrix size, FFT size) as structured, testable experiments.
//
// A sweep is a list of labelled job specs (svc.DSEDesign): workload
// sweeps vary the spec's Workload on every study machine, hardware
// sweeps set its Config. The cells run through svc.RunSpecs on a
// private worker pool, so the (point, machine) grid runs
// machine-parallel, each cell on a machine instance of its own, and
// results are identical at any concurrency. The Sweeper type controls
// concurrency and checkpoint resume.
package study

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/machines"
	"sigkern/internal/rawsim"
	"sigkern/internal/svc"
	"sigkern/internal/viram"
)

// Point is one sweep sample: a label for the swept value and the
// simulated cycles per machine.
type Point struct {
	Label  string
	Cycles map[string]uint64
}

// Sweeper executes sweeps with configurable concurrency.
type Sweeper struct {
	// Concurrency is the number of simulations in flight at once;
	// <= 0 means 1 (serial).
	Concurrency int
	// Completed, when set, is a checkpoint of cells from a previous run:
	// verified cells are served from it without re-simulating, which is
	// how an interrupted sweep resumes. Unverified cells re-run.
	Completed *Checkpoint
	// OnCell, when set, is invoked once per freshly simulated cell (not
	// for cells served from Completed), serially from the collection
	// loop, in submission order, with the cell's wall-clock execution
	// time. Drivers use it to checkpoint progress and report per-cell
	// metrics.
	OnCell func(label, machine string, r core.Result, elapsed time.Duration)
}

// sweep runs the cells through one svc.RunSpecs on a private pool and
// reassembles them into points in order: a point is a run of cells
// sharing a label, each on a different machine. The pool closes when
// the sweep returns, and the machine instances its workers cached go
// with it.
func (s Sweeper) sweep(cells []svc.DSEDesign) ([]Point, error) {
	// Sweeps are batch work: no memo (each cell runs once) and a
	// generous per-simulation deadline.
	pool := svc.NewPool(svc.PoolOptions{
		Workers:      max(s.Concurrency, 1),
		JobTimeout:   time.Hour,
		MemoCapacity: -1,
	})
	defer pool.Close()
	var out []Point
	var fresh []svc.DSEDesign
	var specs []svc.JobSpec
	var at []int // fresh cell -> its point in out
	for _, c := range cells {
		machine := c.Spec.Machine
		if n := len(out); n == 0 || out[n-1].Label != c.Label || hasCycles(out[n-1], machine) {
			out = append(out, Point{Label: c.Label, Cycles: map[string]uint64{}})
		}
		// Resume: a verified cell from a previous run's checkpoint is
		// served as-is; everything else (including unverified cells)
		// re-simulates.
		if s.Completed != nil {
			if done, ok := s.Completed.Lookup(c.Label, machine); ok && done.Verified {
				out[len(out)-1].Cycles[machine] = done.Cycles
				continue
			}
		}
		fresh = append(fresh, c)
		specs = append(specs, c.Spec)
		at = append(at, len(out)-1)
	}
	futs, err := svc.RunSpecs(context.Background(), pool, machines.ByName, specs, svc.PriorityBatch)
	var bad *svc.BatchSpecError
	if errors.As(err, &bad) {
		c := fresh[bad.Index]
		return nil, fmt.Errorf("study: %s @ %s: %w", c.Spec.Machine, c.Label, bad.Err)
	}
	if err != nil {
		return nil, err
	}
	for i, c := range fresh {
		machine := c.Spec.Machine
		r, err := futs[i].Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("study: %s @ %s: %w", machine, c.Label, err)
		}
		out[at[i]].Cycles[machine] = r.Cycles
		if s.OnCell != nil {
			s.OnCell(c.Label, machine, r, futs[i].Elapsed())
		}
	}
	return out, nil
}

// hasCycles reports whether the point already holds a machine's cell —
// a repeated sweep value starts a point of its own.
func hasCycles(p Point, machine string) bool {
	_, ok := p.Cycles[machine]
	return ok
}

// onEveryMachine returns one cell per study machine running kernel k on
// workload w — the cells of one workload-sweep point.
func onEveryMachine(label string, k core.KernelID, w core.Workload) []svc.DSEDesign {
	var cells []svc.DSEDesign
	for _, name := range machines.Names() {
		cells = append(cells, svc.DSEDesign{Label: label, Spec: svc.JobSpec{Machine: name, Kernel: k, Workload: &w}})
	}
	return cells
}

// cornerTurnOn returns the cell running the paper corner turn on one
// machine under a hardware override — one hardware-sweep point.
func cornerTurnOn(label, machine string, cfg machines.ConfigSet) svc.DSEDesign {
	return svc.DSEDesign{Label: label, Spec: svc.JobSpec{Machine: machine, Kernel: core.CornerTurn, Config: &cfg}}
}

// MachineColumns returns the union of machine names across the points
// in the study's canonical order (the paper's machine order), with any
// other names appended alphabetically — a fixed, deterministic column
// ordering for sweep tables.
func MachineColumns(pts []Point) []string {
	present := map[string]bool{}
	for _, p := range pts {
		for name := range p.Cycles {
			present[name] = true
		}
	}
	var cols []string
	for _, m := range machines.All() {
		if present[m.Name()] {
			cols = append(cols, m.Name())
			delete(present, m.Name())
		}
	}
	var rest []string
	for name := range present {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

// MatrixSizes sweeps the corner-turn matrix edge across every machine.
func (s Sweeper) MatrixSizes(sizes []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, n := range sizes {
		w := core.PaperWorkload()
		w.CornerTurn = cornerturn.Spec{Rows: n, Cols: n, BlockSize: 16}
		cells = append(cells, onEveryMachine(fmt.Sprintf("%dx%d", n, n), core.CornerTurn, w)...)
	}
	return s.sweep(cells)
}

// VIRAMAddrGens sweeps the number of VIRAM address generators on the
// corner turn (the paper's 24% strided-limit factor).
func (s Sweeper) VIRAMAddrGens(gens []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, g := range gens {
		cfg := viram.DefaultConfig()
		cfg.DRAM.AddrGens = g
		cells = append(cells, cornerTurnOn(fmt.Sprintf("%d", g), "VIRAM", machines.ConfigSet{VIRAM: &cfg}))
	}
	return s.sweep(cells)
}

// RawTiles sweeps the Raw mesh edge on the corner turn. The shape this
// produces is the perimeter-versus-area story: tiles (and issue slots)
// grow with the mesh area but DRAM ports only with its perimeter, so the
// kernel flips from issue-bound below 4x4 to port-bound above it.
func (s Sweeper) RawTiles(edges []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, e := range edges {
		cfg := rawsim.DefaultConfig()
		cfg.Mesh.Width, cfg.Mesh.Height = e, e
		cells = append(cells, cornerTurnOn(fmt.Sprintf("%dx%d", e, e), "Raw", machines.ConfigSet{Raw: &cfg}))
	}
	return s.sweep(cells)
}

// ImagineDescriptors sweeps the stream-descriptor-register count on the
// fully software-pipelined corner turn.
func (s Sweeper) ImagineDescriptors(counts []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, n := range counts {
		cfg := imagine.DefaultConfig()
		cfg.StreamDescRegs = n
		cfg.FullPipelining = true
		cells = append(cells, cornerTurnOn(fmt.Sprintf("%d", n), "Imagine", machines.ConfigSet{Imagine: &cfg}))
	}
	return s.sweep(cells)
}

// BeamDwells sweeps the beam-steering dwell count across every machine.
func (s Sweeper) BeamDwells(dwells []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, d := range dwells {
		w := core.PaperWorkload()
		w.Beam.Dwells = d
		cells = append(cells, onEveryMachine(fmt.Sprintf("%d", d), core.BeamSteering, w)...)
	}
	return s.sweep(cells)
}

// CSLCFFTSizes sweeps the CSLC sub-band transform length across every
// machine, holding the total sample count fixed (fewer, longer bands as
// the FFT grows). The paper fixes N=128; the sweep shows how each
// machine's CSLC cost moves as the working set and the per-transform
// startup change.
func (s Sweeper) CSLCFFTSizes(sizes []int) ([]Point, error) {
	var cells []svc.DSEDesign
	for _, n := range sizes {
		w := core.PaperWorkload()
		w.CSLC = cslc.PaperSpec(fft.BestRadix(n))
		w.CSLC.FFTSize = n
		// Keep roughly the paper's band overlap: bands span the samples
		// with a hop of 7/8 of the window.
		if hop := n * 7 / 8; hop > 0 {
			w.CSLC.SubBands = (w.CSLC.Samples-n)/hop + 1
		}
		label := fmt.Sprintf("%d-pt x %d bands", n, w.CSLC.SubBands)
		cells = append(cells, onEveryMachine(label, core.CSLC, w)...)
	}
	return s.sweep(cells)
}

// EqualClockSpeedups answers the paper's closing speculation — "if the
// same level of design effort were applied to these research
// architectures, we would expect much higher clock rates" — by reporting
// speedups over the baseline when every machine is normalized to the
// same clock. At equal clocks the time ratio equals the cycle ratio, so
// this is Figure 8 recast as wall-clock.
func EqualClockSpeedups(sr *core.StudyResults, baseline string) (map[string]map[core.KernelID]float64, error) {
	out := make(map[string]map[core.KernelID]float64)
	for _, name := range sr.MachineNames() {
		if name == baseline {
			continue
		}
		out[name] = make(map[core.KernelID]float64)
		for _, k := range core.Kernels() {
			s := sr.SpeedupCycles(baseline, name, k)
			if s <= 0 {
				return nil, fmt.Errorf("study: non-positive speedup for %s/%s", name, k)
			}
			out[name][k] = s
		}
	}
	return out, nil
}
