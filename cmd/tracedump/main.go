// Command tracedump exposes the simulators' internals: a cycle-level
// VIRAM instruction trace (CSV) and Raw's per-tile utilization for a
// chosen kernel — the views an architect would pull from vsim or btl to
// understand a number in Table 3.
//
// Usage:
//
//	tracedump -machine viram -kernel bs -n 40       # first 40 trace rows
//	tracedump -machine viram -kernel ct -csv t.csv  # full trace to CSV
//	tracedump -machine raw -kernel cslc             # per-tile utilization
package main

import (
	"flag"
	"fmt"
	"os"

	"sigkern/internal/core"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/rawsim"
	"sigkern/internal/report"
	"sigkern/internal/viram"
)

func main() {
	machine := flag.String("machine", "viram", "viram or raw")
	kernel := flag.String("kernel", "bs", "ct, cslc, or bs")
	n := flag.Int("n", 40, "trace rows to print (viram)")
	csvPath := flag.String("csv", "", "write the full trace as CSV (viram)")
	flag.Parse()

	var err error
	switch *machine {
	case "viram":
		err = dumpVIRAM(*kernel, *n, *csvPath)
	case "raw":
		err = dumpRaw(*kernel)
	default:
		err = fmt.Errorf("unknown machine %q (want viram or raw)", *machine)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracedump: %v\n", err)
		os.Exit(1)
	}
}

func runKernel(m core.Machine, kernel string) (core.Result, error) {
	k, ok := map[string]core.KernelID{"ct": core.CornerTurn, "cslc": core.CSLC, "bs": core.BeamSteering}[kernel]
	if !ok {
		return core.Result{}, fmt.Errorf("unknown kernel %q (want ct, cslc, or bs)", kernel)
	}
	return core.Run(m, k, core.PaperWorkload())
}

func dumpVIRAM(kernel string, n int, csvPath string) error {
	m := viram.New(viram.DefaultConfig())
	var entries []viram.TraceEntry
	m.SetTracer(func(e viram.TraceEntry) { entries = append(entries, e) })
	r, err := runKernel(m, kernel)
	if err != nil {
		return err
	}
	fmt.Printf("VIRAM %s: %d cycles, %d instructions traced\n\n",
		kernel, r.Cycles, len(entries))

	// Per-opcode summary.
	type agg struct {
		count int
		busy  uint64
	}
	byOp := map[string]*agg{}
	for _, e := range entries {
		a := byOp[viram.OpName(e.Op)]
		if a == nil {
			a = &agg{}
			byOp[viram.OpName(e.Op)] = a
		}
		a.count++
		a.busy += e.Duration
	}
	var rows [][]string
	for _, op := range []string{"vld", "vlds", "vst", "vsts", "vaddf", "vmulf", "vfma", "vaddi", "vsh", "vperm", "scalar"} {
		if a, ok := byOp[op]; ok {
			rows = append(rows, []string{op, fmt.Sprintf("%d", a.count), fmt.Sprintf("%d", a.busy)})
		}
	}
	if err := report.Table(os.Stdout, "instruction mix",
		[]string{"op", "count", "busy cycles"}, rows); err != nil {
		return err
	}
	fmt.Println()

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		var crows [][]string
		for _, e := range entries {
			crows = append(crows, traceRow(e))
		}
		if err := report.CSV(f, traceHeaders(), crows); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace rows to %s\n", len(entries), csvPath)
		return nil
	}

	if n > len(entries) {
		n = len(entries)
	}
	var trows [][]string
	for _, e := range entries[:n] {
		trows = append(trows, traceRow(e))
	}
	return report.Table(os.Stdout, fmt.Sprintf("first %d instructions", n),
		traceHeaders(), trows)
}

func traceHeaders() []string {
	return []string{"idx", "op", "vl", "unit", "dispatch", "start", "dur"}
}

func traceRow(e viram.TraceEntry) []string {
	return []string{
		fmt.Sprintf("%d", e.Index), viram.OpName(e.Op), fmt.Sprintf("%d", e.VL),
		e.Unit, fmt.Sprintf("%d", e.Dispatch), fmt.Sprintf("%d", e.Start),
		fmt.Sprintf("%d", e.Duration),
	}
}

func dumpRaw(kernel string) error {
	m := rawsim.New(rawsim.DefaultConfig())
	var r core.Result
	var err error
	// For CSLC show the unextrapolated run: the per-tile imbalance is
	// the point of this view.
	if kernel == "cslc" {
		r, err = m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2))
	} else {
		r, err = runKernel(m, kernel)
	}
	if err != nil {
		return err
	}
	fmt.Printf("Raw %s: %d cycles (slowest tile)\n\n", kernel, r.Cycles)
	var rows [][]string
	for _, tu := range m.TileUtilization() {
		rows = append(rows, []string{
			fmt.Sprintf("%d", tu.Tile),
			fmt.Sprintf("%d", tu.Cycles),
			tu.Breakdown.String(),
		})
	}
	return report.Table(os.Stdout, "per-tile utilization",
		[]string{"tile", "cycles", "breakdown"}, rows)
}
