// Beam-schedule example: drive the beam-steering kernel the way a radar
// scheduler would — a revisit schedule of dwells, each steering the
// 1608-element array toward several targets — and compare how the four
// machines keep up as the schedule densifies.
package main

import (
	"fmt"
	"log"
	"os"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/testsig"
	"sigkern/internal/machines"
	"sigkern/internal/report"
)

func main() {
	base := beamsteer.PaperSpec()

	// Show the functional output for one dwell: the phase commands the
	// array would receive.
	tables := testsig.NewBeamTables(base.Elements, base.Directions, base.Dwells, 7)
	out, err := beamsteer.Steer(base, tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dwell 0, beam 0: phase commands for elements 0..7: %v\n", out[0][0][:8])
	fmt.Printf("dwell 0, beam 1: phase commands for elements 0..7: %v\n\n", out[0][1][:8])

	// Densify the schedule: more beams per dwell (tracking more targets).
	fmt.Println("interval cycles (10^3) as the schedule densifies (beams per dwell):")
	headers := []string{"Beams/dwell"}
	ms := machines.All()
	for _, m := range ms {
		headers = append(headers, m.Name())
	}
	var rows [][]string
	for _, beams := range []int{1, 2, 4, 8, 16} {
		spec := base
		spec.Directions = beams
		row := []string{fmt.Sprintf("%d", beams)}
		for _, m := range ms {
			r, err := core.Run(m, core.BeamSteering, core.Workload{Beam: spec})
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, report.KCycles(r.Cycles))
		}
		rows = append(rows, row)
	}
	if err := report.Table(os.Stdout, "", headers, rows); err != nil {
		log.Fatal(err)
	}

	// Wall-clock view at the densest point: the paper's Figure 9 story —
	// research chips win even at one third the clock rate.
	fmt.Println("\nwall-clock per interval at 16 beams/dwell:")
	spec := base
	spec.Directions = 16
	var wrows [][]string
	for _, m := range ms {
		r, err := core.Run(m, core.BeamSteering, core.Workload{Beam: spec})
		if err != nil {
			log.Fatal(err)
		}
		wrows = append(wrows, []string{
			m.Name(),
			fmt.Sprintf("%.0f MHz", m.Params().ClockMHz),
			fmt.Sprintf("%.3f ms", r.TimeMS(m.Params().ClockMHz)),
		})
	}
	if err := report.Table(os.Stdout, "", []string{"Machine", "clock", "time"}, wrows); err != nil {
		log.Fatal(err)
	}
}
