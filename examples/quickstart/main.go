// Quickstart: run one kernel (the corner turn) on every machine model
// and print the Table 3 row with speedups — the minimal use of the
// public study API.
package main

import (
	"fmt"
	"log"
	"os"

	"sigkern/internal/core"
	"sigkern/internal/machines"
	"sigkern/internal/report"
)

func main() {
	// The paper's workload: 1024x1024x4-byte corner turn, the 73-band
	// CSLC, and the 1608-element beam steer.
	workload := core.PaperWorkload()

	fmt.Println("corner turn on every machine (1024 x 1024 x 32-bit):")
	var rows [][]string
	var baseline core.Result
	for _, m := range machines.All() {
		r, err := core.Run(m, core.CornerTurn, workload)
		if err != nil {
			log.Fatalf("%s: %v", m.Name(), err)
		}
		if m.Name() == machines.Baseline {
			baseline = r
		}
		rows = append(rows, []string{
			m.Name(),
			report.KCycles(r.Cycles),
			fmt.Sprintf("%.2f", r.OpsPerCycle()),
			fmt.Sprintf("%.3f ms", r.TimeMS(m.Params().ClockMHz)),
		})
	}
	// Append the cycle speedup over the AltiVec baseline.
	for i, m := range machines.All() {
		s := float64(baseline.Cycles) / parseKCyclesRow(rows[i])
		rows[i] = append(rows[i], report.Speedup(s)+"x")
		_ = m
	}
	err := report.Table(os.Stdout, "",
		[]string{"Machine", "kcycles", "words/cycle", "time", "vs AltiVec"}, rows)
	if err != nil {
		log.Fatal(err)
	}
}

// parseKCyclesRow recovers the cycle count from the rendered row; the
// quickstart favours showing the report API over threading extra state.
func parseKCyclesRow(row []string) float64 {
	var k float64
	fmt.Sscanf(row[1], "%f", &k)
	return k * 1e3
}
