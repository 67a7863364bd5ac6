package report

import (
	"fmt"
	"io"

	"sigkern/internal/core"
	"sigkern/internal/roofline"
)

// RenderTable1 writes the paper's Table 1: peak throughput in 32-bit
// words per cycle.
func RenderTable1(w io.Writer) error {
	var rows [][]string
	for _, t := range roofline.Table1() {
		rows = append(rows, []string{
			t.Machine,
			fmt.Sprintf("%.0f", t.OnChipRW),
			fmt.Sprintf("%.0f", t.OffChipRW),
			fmt.Sprintf("%.0f", t.Compute),
		})
	}
	return Table(w, "Table 1. Peak throughput (32-bit words per cycle)",
		[]string{"Machine", "On-chip R/W", "Off-chip R/W", "Computation"}, rows)
}

// RenderTable2 writes the paper's Table 2: processor parameters.
func RenderTable2(w io.Writer, machines []core.Machine) error {
	var rows [][]string
	for _, m := range machines {
		p := m.Params()
		rows = append(rows, []string{
			m.Name(),
			fmt.Sprintf("%.0f", p.ClockMHz),
			fmt.Sprintf("%d", p.ALUs),
			fmt.Sprintf("%.2f", p.PeakGFLOPS),
		})
	}
	return Table(w, "Table 2. Processor parameters",
		[]string{"Machine", "Clock (MHz)", "# of ALUs", "Peak GFLOPS"}, rows)
}

// RenderTable3 writes the paper's Table 3: experimental results in
// thousands of cycles.
func RenderTable3(w io.Writer, sr *core.StudyResults) error {
	var rows [][]string
	for _, name := range sr.MachineNames() {
		row := []string{name}
		for _, k := range core.Kernels() {
			r, ok := sr.Result(name, k)
			if !ok {
				return fmt.Errorf("report: missing result %s/%s", name, k)
			}
			row = append(row, KCycles(r.Cycles))
		}
		rows = append(rows, row)
	}
	headers := []string{"Machine"}
	for _, k := range core.Kernels() {
		headers = append(headers, k.Title())
	}
	return Table(w, "Table 3. Experimental results (cycles in 10^3)", headers, rows)
}

// RenderTable4 writes the reconstructed Table 4: the Section 2.5
// performance model's expected corner-turn cycles (the roofline's peak
// and strided bounds) against the simulated measurement, one row per
// Table 1 machine the study ran, in Table 1 order.
func RenderTable4(w io.Writer, sr *core.StudyResults) error {
	var rows [][]string
	for _, t := range roofline.Table1() {
		r, ok := sr.Result(t.Machine, core.CornerTurn)
		if !ok {
			continue
		}
		e, err := roofline.ForJob(t.Machine, core.CornerTurn, sr.Workload)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			t.Machine,
			KCycles(e.PeakCycles),
			KCycles(e.Cycles),
			KCycles(r.Cycles),
			fmt.Sprintf("%.2fx", float64(r.Cycles)/float64(e.PeakCycles)),
		})
	}
	if len(rows) == 0 {
		return fmt.Errorf("report: no corner-turn result for a Table 1 machine")
	}
	return Table(w,
		"Table 4. Corner turn: performance-model expectation vs. measured (cycles in 10^3; reconstructed)",
		[]string{"Machine", "Peak model", "Strided model", "Measured", "Measured/peak"}, rows)
}

// speedupGroups builds the Figure 8/9 bar groups: one group per kernel,
// one bar per non-baseline machine.
func speedupGroups(sr *core.StudyResults, baseline string, timeDomain bool) ([]string, []BarSeries, error) {
	var series []string
	for _, name := range sr.MachineNames() {
		if name != baseline {
			series = append(series, name)
		}
	}
	var groups []BarSeries
	for _, k := range core.Kernels() {
		g := BarSeries{Label: k.Title()}
		for _, name := range series {
			var s float64
			if timeDomain {
				s = sr.SpeedupTime(baseline, name, k)
			} else {
				s = sr.SpeedupCycles(baseline, name, k)
			}
			if s <= 0 {
				return nil, nil, fmt.Errorf("report: non-positive speedup for %s/%s", name, k)
			}
			g.Values = append(g.Values, s)
		}
		groups = append(groups, g)
	}
	return series, groups, nil
}

// RenderFigure8 writes the paper's Figure 8: speedup over the baseline
// in cycle counts, on a log axis.
func RenderFigure8(w io.Writer, sr *core.StudyResults, baseline string) error {
	series, groups, err := speedupGroups(sr, baseline, false)
	if err != nil {
		return err
	}
	return LogBarChart(w,
		fmt.Sprintf("Figure 8. Speedup compared with %s (cycles)", baseline),
		series, groups, 50)
}

// RenderFigure9 writes the paper's Figure 9: speedup over the baseline
// in execution time at each machine's own clock rate, on a log axis.
func RenderFigure9(w io.Writer, sr *core.StudyResults, baseline string) error {
	series, groups, err := speedupGroups(sr, baseline, true)
	if err != nil {
		return err
	}
	return LogBarChart(w,
		fmt.Sprintf("Figure 9. Speedup compared with %s (execution time at real clock rates)", baseline),
		series, groups, 50)
}

// RenderGeoMeans writes the geometric-mean speedup over the baseline per
// machine, in both cycle and time domains — the aggregate view the paper
// uses for its EEMBC comparison in Section 2.1.
func RenderGeoMeans(w io.Writer, sr *core.StudyResults, baseline string) error {
	var rows [][]string
	for _, name := range sr.MachineNames() {
		if name == baseline {
			continue
		}
		rows = append(rows, []string{
			name,
			Speedup(sr.GeometricMeanSpeedup(baseline, name, false)),
			Speedup(sr.GeometricMeanSpeedup(baseline, name, true)),
		})
	}
	return Table(w,
		fmt.Sprintf("Geometric-mean speedup over %s across the three kernels", baseline),
		[]string{"Machine", "cycles", "time"}, rows)
}

// RenderBreakdowns writes each result's cycle breakdown, mirroring the
// paper's Section 4 percentage analyses.
func RenderBreakdowns(w io.Writer, sr *core.StudyResults) error {
	for _, k := range core.Kernels() {
		if _, err := fmt.Fprintf(w, "%s cycle breakdowns:\n", k.Title()); err != nil {
			return err
		}
		for _, name := range sr.MachineNames() {
			r, ok := sr.Result(name, k)
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "  %-8s %s\n", name, r.Breakdown.String()); err != nil {
				return err
			}
			for _, note := range r.Notes {
				if _, err := fmt.Fprintf(w, "           note: %s\n", note); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// StudyCSV emits every (machine, kernel) result as CSV rows.
func StudyCSV(w io.Writer, sr *core.StudyResults) error {
	headers := []string{"machine", "kernel", "cycles", "kcycles", "ops", "ops_per_cycle", "words"}
	var rows [][]string
	for _, name := range sr.MachineNames() {
		for _, k := range core.Kernels() {
			r, ok := sr.Result(name, k)
			if !ok {
				return fmt.Errorf("report: missing result %s/%s", name, k)
			}
			rows = append(rows, []string{
				name, string(k),
				fmt.Sprintf("%d", r.Cycles),
				KCycles(r.Cycles),
				fmt.Sprintf("%d", r.Ops),
				fmt.Sprintf("%.3f", r.OpsPerCycle()),
				fmt.Sprintf("%d", r.Words),
			})
		}
	}
	return CSV(w, headers, rows)
}
