// Package study implements the design-space sweeps around the paper's
// fixed measurement points: the excursions its analysis gestures at
// (address-generator counts, tile counts, descriptor registers, dwell
// density, matrix size) as structured, testable experiments.
//
// Sweeps execute through the simulation service's worker pool
// (internal/svc), so the (point, machine) grid runs machine-parallel;
// the Sweeper type controls concurrency. The package-level functions
// keep the original serial-equivalent API (results are identical either
// way: every simulation runs on a fresh machine instance).
package study

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/beamsteer"
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
	// Pool, when set, runs the sweep on an existing pool (e.g. the
	// simulation service's) instead of a private one, sharing its
	// metrics and memoization; Concurrency is then ignored.
	Pool *svc.Pool
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

// machineRun is one simulation of a sweep point: a column name and the
// function producing its cycles. Each run constructs its own machine,
// so runs are independent and safe to execute concurrently.
type machineRun struct {
	machine string
	run     func() (core.Result, error)
}

// pointRuns is one sweep point's label and simulations.
type pointRuns struct {
	label string
	runs  []machineRun
}

// sweep fans every (point, machine) simulation across the pool and
// reassembles points in order.
func (s Sweeper) sweep(points []pointRuns) ([]Point, error) {
	pool := s.Pool
	if pool == nil {
		workers := s.Concurrency
		if workers <= 0 {
			workers = 1
		}
		// Sweeps are batch work: no memo (each cell runs once) and a
		// generous per-simulation deadline.
		pool = svc.NewPool(svc.PoolOptions{
			Workers:      workers,
			JobTimeout:   time.Hour,
			MemoCapacity: -1,
		})
		defer pool.Close()
	}
	out := make([]Point, len(points))
	for i, p := range points {
		out[i] = Point{Label: p.label, Cycles: map[string]uint64{}}
	}
	// The whole sweep goes to the pool as one Submit: one queue
	// reservation per wave instead of one send per cell. Cells
	// stay plain Run tasks — sweep closures bake in per-point machine
	// configurations, so two cells named "VIRAM" may be different
	// machines and must not share a reused instance.
	type cell struct {
		point, run int
	}
	var cells []cell
	var tasks []svc.Task
	for pi, p := range points {
		for ri, mr := range p.runs {
			// Resume: a verified cell from a previous run's checkpoint is
			// served as-is; everything else (including unverified cells)
			// re-simulates.
			if s.Completed != nil {
				if c, ok := s.Completed.Lookup(p.label, mr.machine); ok && c.Verified {
					out[pi].Cycles[mr.machine] = c.Cycles
					continue
				}
			}
			run := mr.run
			cells = append(cells, cell{point: pi, run: ri})
			tasks = append(tasks, svc.Task{
				Label:    fmt.Sprintf("%s @ %s", mr.machine, p.label),
				Priority: svc.PriorityBatch,
				Run: func(context.Context) (core.Result, error) {
					return run()
				},
			})
		}
	}
	futs, err := pool.Submit(context.Background(), tasks, false)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		label, machine := points[c.point].label, points[c.point].runs[c.run].machine
		r, err := futs[i].Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("study: %s: %w", machine, err)
		}
		out[c.point].Cycles[machine] = r.Cycles
		if s.OnCell != nil {
			s.OnCell(label, machine, r, futs[i].Elapsed())
		}
	}
	return out, nil
}

// allMachineRuns builds one run per study machine, each on a fresh
// instance.
func allMachineRuns(run func(m core.Machine) (core.Result, error)) []machineRun {
	var runs []machineRun
	for _, m := range machines.All() {
		name := m.Name()
		runs = append(runs, machineRun{machine: name, run: func() (core.Result, error) {
			m, err := machines.ByName(name)
			if err != nil {
				return core.Result{}, err
			}
			return run(m)
		}})
	}
	return runs
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
func MatrixSizes(sizes []int) ([]Point, error) { return Sweeper{}.MatrixSizes(sizes) }

// MatrixSizes sweeps the corner-turn matrix edge across every machine.
func (s Sweeper) MatrixSizes(sizes []int) ([]Point, error) {
	var points []pointRuns
	for _, n := range sizes {
		spec := cornerturn.Spec{Rows: n, Cols: n, BlockSize: 16}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		points = append(points, pointRuns{
			label: fmt.Sprintf("%dx%d", n, n),
			runs: allMachineRuns(func(m core.Machine) (core.Result, error) {
				return m.RunCornerTurn(spec)
			}),
		})
	}
	return s.sweep(points)
}

// VIRAMAddrGens sweeps the number of VIRAM address generators on the
// corner turn (the paper's 24% strided-limit factor).
func VIRAMAddrGens(gens []int) ([]Point, error) { return Sweeper{}.VIRAMAddrGens(gens) }

// VIRAMAddrGens sweeps the number of VIRAM address generators on the
// corner turn (the paper's 24% strided-limit factor).
func (s Sweeper) VIRAMAddrGens(gens []int) ([]Point, error) {
	var points []pointRuns
	for _, g := range gens {
		g := g
		points = append(points, pointRuns{
			label: fmt.Sprintf("%d", g),
			runs: []machineRun{{machine: "VIRAM", run: func() (core.Result, error) {
				cfg := viram.DefaultConfig()
				cfg.DRAM.AddrGens = g
				return viram.New(cfg).RunCornerTurn(cornerturn.PaperSpec())
			}}},
		})
	}
	return s.sweep(points)
}

// RawTiles sweeps the Raw mesh edge on the corner turn. The shape this
// produces is the perimeter-versus-area story: tiles (and issue slots)
// grow with the mesh area but DRAM ports only with its perimeter, so the
// kernel flips from issue-bound below 4x4 to port-bound above it.
func RawTiles(edges []int) ([]Point, error) { return Sweeper{}.RawTiles(edges) }

// RawTiles sweeps the Raw mesh edge on the corner turn.
func (s Sweeper) RawTiles(edges []int) ([]Point, error) {
	var points []pointRuns
	for _, e := range edges {
		e := e
		points = append(points, pointRuns{
			label: fmt.Sprintf("%dx%d", e, e),
			runs: []machineRun{{machine: "Raw", run: func() (core.Result, error) {
				cfg := rawsim.DefaultConfig()
				cfg.Mesh.Width, cfg.Mesh.Height = e, e
				return rawsim.New(cfg).RunCornerTurn(cornerturn.PaperSpec())
			}}},
		})
	}
	return s.sweep(points)
}

// ImagineDescriptors sweeps the stream-descriptor-register count on the
// fully software-pipelined corner turn.
func ImagineDescriptors(counts []int) ([]Point, error) { return Sweeper{}.ImagineDescriptors(counts) }

// ImagineDescriptors sweeps the stream-descriptor-register count on the
// fully software-pipelined corner turn.
func (s Sweeper) ImagineDescriptors(counts []int) ([]Point, error) {
	var points []pointRuns
	for _, n := range counts {
		n := n
		points = append(points, pointRuns{
			label: fmt.Sprintf("%d", n),
			runs: []machineRun{{machine: "Imagine", run: func() (core.Result, error) {
				cfg := imagine.DefaultConfig()
				cfg.StreamDescRegs = n
				cfg.FullPipelining = true
				return imagine.New(cfg).RunCornerTurn(cornerturn.PaperSpec())
			}}},
		})
	}
	return s.sweep(points)
}

// BeamDwells sweeps the beam-steering dwell count across every machine.
func BeamDwells(dwells []int) ([]Point, error) { return Sweeper{}.BeamDwells(dwells) }

// BeamDwells sweeps the beam-steering dwell count across every machine.
func (s Sweeper) BeamDwells(dwells []int) ([]Point, error) {
	var points []pointRuns
	for _, d := range dwells {
		spec := beamsteer.PaperSpec()
		spec.Dwells = d
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		points = append(points, pointRuns{
			label: fmt.Sprintf("%d", d),
			runs: allMachineRuns(func(m core.Machine) (core.Result, error) {
				return m.RunBeamSteering(spec)
			}),
		})
	}
	return s.sweep(points)
}

// CSLCFFTSizes sweeps the CSLC sub-band transform length across every
// machine, holding the total sample count fixed (fewer, longer bands as
// the FFT grows). The paper fixes N=128; the sweep shows how each
// machine's CSLC cost moves as the working set and the per-transform
// startup change.
func CSLCFFTSizes(sizes []int) ([]Point, error) { return Sweeper{}.CSLCFFTSizes(sizes) }

// CSLCFFTSizes sweeps the CSLC sub-band transform length across every
// machine.
func (s Sweeper) CSLCFFTSizes(sizes []int) ([]Point, error) {
	var points []pointRuns
	for _, n := range sizes {
		spec := cslc.PaperSpec(fft.BestRadix(n))
		spec.FFTSize = n
		// Keep roughly the paper's band overlap: bands span the samples
		// with a hop of 7/8 of the window.
		if hop := n * 7 / 8; hop > 0 {
			spec.SubBands = (spec.Samples-n)/hop + 1
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("study: FFT size %d: %w", n, err)
		}
		points = append(points, pointRuns{
			label: fmt.Sprintf("%d-pt x %d bands", n, spec.SubBands),
			runs: allMachineRuns(func(m core.Machine) (core.Result, error) {
				return m.RunCSLC(spec)
			}),
		})
	}
	return s.sweep(points)
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
