// Command sweep runs parameter sweeps over the machine models: the
// design-space excursions the paper's analysis points at but does not
// plot — matrix size, VIRAM address generators, Raw tile counts, Imagine
// stream-descriptor registers, beam-steering dwell counts, and CSLC
// sub-band FFT sizes.
//
// Each sweep is a list of labelled job specs executed through the
// simulation service's worker pool (internal/svc), machine-parallel;
// -workers controls the fan-out.
//
// Usage:
//
//	sweep -what matrix      # corner-turn cycles vs matrix size, all machines
//	sweep -what addrgens    # VIRAM corner turn vs address generators
//	sweep -what tiles       # Raw corner turn vs mesh size
//	sweep -what descriptors # Imagine corner turn vs descriptor registers
//	sweep -what dwells      # beam steering vs dwell count, all machines
//	sweep -what fftsize     # CSLC vs sub-band FFT size, all machines
//
// Crash safety: with -checkpoint FILE every completed (point, machine)
// cell is saved to FILE (atomic temp+rename JSON) as the sweep runs.
// After a crash or kill, rerunning with -resume loads the file and
// skips the verified-complete cells, re-simulating only what is
// missing; the rendered table is identical to an uninterrupted run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/report"
	"sigkern/internal/study"
)

func main() {
	what := flag.String("what", "matrix", "sweep to run: matrix, addrgens, tiles, descriptors, dwells, fftsize")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulations to run in parallel")
	checkpoint := flag.String("checkpoint", "", "save completed cells to this JSON file as the sweep runs")
	resume := flag.Bool("resume", false, "skip cells already verified-complete in the -checkpoint file")
	flag.Parse()
	if err := run(*what, *workers, *checkpoint, *resume, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run executes one sweep and writes its table, and with a checkpoint
// its per-machine summary, to out.
func run(what string, workers int, checkpoint string, resume bool, out io.Writer) error {
	sw := study.Sweeper{Concurrency: workers}
	if resume && checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	var cp *study.Checkpoint
	if checkpoint != "" {
		var err error
		cp, err = loadOrNewCheckpoint(what, checkpoint, resume)
		if err != nil {
			return err
		}
		sw.Completed = cp
		sw.OnCell = func(label, machine string, r core.Result, elapsed time.Duration) {
			cp.Add(label, machine, r, elapsed)
			if err := cp.Save(checkpoint); err != nil {
				// A failed save only costs resumability, not results.
				fmt.Fprintf(os.Stderr, "sweep: checkpoint save: %v\n", err)
			}
		}
		defer printSummary(out, cp)
	}
	switch what {
	case "matrix":
		pts, err := sw.MatrixSizes([]int{256, 512, 1024, 2048})
		if err != nil {
			return err
		}
		return render(out, "Corner-turn cycles (10^3) vs matrix size", "Matrix", pts)
	case "addrgens":
		pts, err := sw.VIRAMAddrGens([]int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		return render(out, "VIRAM corner turn vs address generators (paper: 4; the 24% strided-limit factor)",
			"Addr gens", pts)
	case "tiles":
		pts, err := sw.RawTiles([]int{2, 3, 4, 6, 8})
		if err != nil {
			return err
		}
		if err := render(out, "Raw corner turn vs mesh size", "Mesh", pts); err != nil {
			return err
		}
		fmt.Fprintln(out, "(tiles scale with mesh area, DRAM ports with its perimeter: the kernel is")
		fmt.Fprintln(out, " issue-bound below 4x4 and port-bound above it)")
		return nil
	case "descriptors":
		pts, err := sw.ImagineDescriptors([]int{2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		if err := render(out, "Imagine corner turn (fully pipelined) vs stream descriptor registers",
			"Descriptors", pts); err != nil {
			return err
		}
		fmt.Fprintln(out, "(flat beyond 2: the strip loop holds at most ~6 streams in flight, so the pool")
		fmt.Fprintln(out, " size does not bind — the measured chip's limitation was issue ordering)")
		return nil
	case "fftsize":
		pts, err := sw.CSLCFFTSizes([]int{32, 64, 128, 256, 512})
		if err != nil {
			return err
		}
		return render(out, "CSLC cycles (10^3) vs sub-band FFT size", "Transform", pts)
	case "dwells":
		pts, err := sw.BeamDwells([]int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		return render(out, "Beam-steering cycles (10^3) vs dwell count", "Dwells", pts)
	default:
		return fmt.Errorf("unknown sweep %q", what)
	}
}

// printSummary reports per-machine cell metrics from the checkpoint:
// completed cells, verified cells, summed kilocycles, and wall-clock
// simulation time. Cells restored from a resumed checkpoint keep their
// recorded elapsed times, so the totals cover the whole sweep.
func printSummary(out io.Writer, cp *study.Checkpoint) {
	sums := cp.Summary()
	if len(sums) == 0 {
		return
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Per-machine cell metrics:")
	for _, s := range sums {
		fmt.Fprintf(out, "  %-10s %2d cell(s), %2d verified, %12.1f kcycles, %8.1f ms wall\n",
			s.Machine, s.Cells, s.VerifiedCells, s.KCycles, s.WallMS)
	}
}

// loadOrNewCheckpoint resumes from path when asked (a missing file just
// starts fresh), refusing a checkpoint recorded for a different sweep.
func loadOrNewCheckpoint(what, path string, resume bool) (*study.Checkpoint, error) {
	if resume {
		cp, err := study.LoadCheckpoint(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing recorded yet; fall through to a fresh checkpoint.
		case err != nil:
			return nil, err
		case cp.Sweep() != what:
			return nil, fmt.Errorf("checkpoint %s records sweep %q, not %q", path, cp.Sweep(), what)
		default:
			fmt.Fprintf(os.Stderr, "sweep: resuming, %d cell(s) already complete\n", cp.Len())
			return cp, nil
		}
	}
	return study.NewCheckpoint(what), nil
}

// render prints sweep points as a table with one column per machine, in
// the study's fixed machine order (paper order) so columns are stable
// across runs and sweeps.
func render(out io.Writer, title, axis string, pts []study.Point) error {
	if len(pts) == 0 {
		return fmt.Errorf("empty sweep")
	}
	names := study.MachineColumns(pts)
	headers := make([]string, 0, 1+len(names))
	headers = append(append(headers, axis), names...)
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		row := make([]string, 0, 1+len(names))
		row = append(row, p.Label)
		for _, name := range names {
			row = append(row, report.KCycles(p.Cycles[name]))
		}
		rows = append(rows, row)
	}
	return report.Table(out, title, headers, rows)
}
