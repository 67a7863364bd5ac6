// Command sigstudy runs the full comparative study and regenerates the
// paper's evaluation artifacts: Tables 1-4 and Figures 8-9, plus the
// Section 4 cycle breakdowns.
//
// Usage:
//
//	sigstudy                 # everything
//	sigstudy -table 3        # one table (1-4)
//	sigstudy -figure 8       # one figure (8 or 9)
//	sigstudy -kernel cslc    # one kernel's row across machines
//	sigstudy -csv out.csv    # also dump results as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/machines"
	"sigkern/internal/report"
	"sigkern/internal/svc"
)

func main() {
	table := flag.Int("table", 0, "render only this table (1-4)")
	figure := flag.Int("figure", 0, "render only this figure (8 or 9)")
	kernel := flag.String("kernel", "", "render only this kernel's results (ct, cslc, bs)")
	csvPath := flag.String("csv", "", "write results as CSV to this file")
	htmlPath := flag.String("html", "", "write a self-contained HTML report to this file")
	breakdowns := flag.Bool("breakdowns", true, "print per-result cycle breakdowns")
	matrix := flag.Int("matrix", 0, "override the corner-turn matrix edge")
	dwells := flag.Int("dwells", 0, "override the beam-steering dwell count")
	subbands := flag.Int("subbands", 0, "override the CSLC sub-band count")
	configPath := flag.String("config", "", "load machine configurations from this JSON file")
	workloadPath := flag.String("workload", "", "load the kernel workload from this JSON file")
	saveConfig := flag.String("saveconfig", "", "write the default machine configurations to this JSON file and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulations to run in parallel")
	flag.Parse()

	if *saveConfig != "" {
		if err := machines.SaveConfigSet(*saveConfig, machines.DefaultConfigSet()); err != nil {
			fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote default machine configurations to %s\n", *saveConfig)
		return
	}
	ms := machines.All()
	factory := svc.MachineFactory(machines.ByName)
	if *configPath != "" {
		set, err := machines.LoadConfigSet(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
			os.Exit(1)
		}
		ms, err = set.Machines()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
			os.Exit(1)
		}
		factory, err = machines.FactoryFromConfigSet(set)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
			os.Exit(1)
		}
	}

	w := core.PaperWorkload()
	if *workloadPath != "" {
		var err error
		w, err = machines.LoadWorkload(*workloadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
			os.Exit(1)
		}
	}
	if *matrix > 0 {
		w.CornerTurn.Rows, w.CornerTurn.Cols = *matrix, *matrix
	}
	if *dwells > 0 {
		w.Beam.Dwells = *dwells
	}
	if *subbands > 0 {
		w.CSLC.SubBands = *subbands
	}
	if err := run(ms, factory, *workers, w, *table, *figure, *kernel, *csvPath, *htmlPath, *breakdowns); err != nil {
		fmt.Fprintf(os.Stderr, "sigstudy: %v\n", err)
		os.Exit(1)
	}
}

func run(ms []core.Machine, factory svc.MachineFactory, workers int, w core.Workload, table, figure int, kernel, csvPath, htmlPath string, breakdowns bool) error {
	fmt.Printf("Running the PIM / stream / tiled processing study (%d workers)...\n", workers)
	// Fan the (machine, kernel) grid out across the service's worker
	// pool at batch priority; cycle counts are identical to the serial
	// core.RunStudy.
	pool := svc.NewPool(svc.PoolOptions{
		Workers:      workers,
		JobTimeout:   time.Hour,
		MemoCapacity: -1,
	})
	defer pool.Close()
	var names []string
	for _, m := range ms {
		names = append(names, m.Name())
	}
	sr, err := svc.RunStudy(context.Background(), pool, factory, names, w, svc.PriorityBatch)
	if err != nil {
		return err
	}
	out := os.Stdout
	fmt.Fprintln(out)

	if kernel == "mm" || kernel == "matmul" {
		return renderMatMul()
	}
	if kernel != "" {
		k, err := kernelID(kernel)
		if err != nil {
			return err
		}
		return renderKernel(sr, k)
	}

	renderTable := func(n int) error {
		switch n {
		case 1:
			return report.RenderTable1(out)
		case 2:
			return report.RenderTable2(out, sr.Machines())
		case 3:
			return report.RenderTable3(out, sr)
		case 4:
			return report.RenderTable4(out, sr)
		default:
			return fmt.Errorf("no table %d (want 1-4)", n)
		}
	}
	renderFigure := func(n int) error {
		switch n {
		case 8:
			return report.RenderFigure8(out, sr, machines.Baseline)
		case 9:
			return report.RenderFigure9(out, sr, machines.Baseline)
		default:
			return fmt.Errorf("no figure %d (want 8 or 9)", n)
		}
	}

	switch {
	case table != 0:
		if err := renderTable(table); err != nil {
			return err
		}
	case figure != 0:
		if err := renderFigure(figure); err != nil {
			return err
		}
	default:
		for n := 1; n <= 4; n++ {
			if err := renderTable(n); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		for _, n := range []int{8, 9} {
			if err := renderFigure(n); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if err := report.RenderGeoMeans(out, sr, machines.Baseline); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if breakdowns {
			if err := report.RenderBreakdowns(out, sr); err != nil {
				return err
			}
		}
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.StudyCSV(f, sr); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", csvPath)
	}
	if htmlPath != "" {
		f, err := os.Create(htmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.HTMLReport(f, sr, machines.Baseline); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", htmlPath)
	}
	return nil
}

func kernelID(s string) (core.KernelID, error) {
	switch s {
	case "ct", "corner-turn", "cornerturn":
		return core.CornerTurn, nil
	case "cslc":
		return core.CSLC, nil
	case "bs", "beam-steering", "beamsteering":
		return core.BeamSteering, nil
	default:
		return "", fmt.Errorf("unknown kernel %q (want ct, cslc, or bs)", s)
	}
}

// renderMatMul runs the extension kernel across machines.
func renderMatMul() error {
	spec := matmul.DefaultSpec()
	var rows [][]string
	for _, m := range machines.All() {
		mr, ok := m.(core.MatMulRunner)
		if !ok {
			continue
		}
		r, err := mr.RunMatMul(spec)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			m.Name(),
			report.KCycles(r.Cycles),
			fmt.Sprintf("%.2f", r.OpsPerCycle()),
			fmt.Sprintf("%.3f ms", r.TimeMS(m.Params().ClockMHz)),
		})
	}
	return report.Table(os.Stdout,
		fmt.Sprintf("Matrix multiply %dx%dx%d (extension kernel; cycles in 10^3)", spec.M, spec.N, spec.K),
		[]string{"Machine", "kcycles", "flops/cycle", "time"}, rows)
}

func renderKernel(sr *core.StudyResults, k core.KernelID) error {
	var rows [][]string
	for _, name := range sr.MachineNames() {
		r, ok := sr.Result(name, k)
		if !ok {
			return fmt.Errorf("missing result %s/%s", name, k)
		}
		rows = append(rows, []string{
			name,
			report.KCycles(r.Cycles),
			fmt.Sprintf("%.2f", r.OpsPerCycle()),
			r.Breakdown.String(),
		})
	}
	return report.Table(os.Stdout, k.Title()+" (cycles in 10^3)",
		[]string{"Machine", "kcycles", "ops/cycle", "breakdown"}, rows)
}
