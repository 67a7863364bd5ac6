// Pipeline example: the "actual signal processing pipeline" the paper
// sketches in Section 4.4 — a poly-phase filter bank channelizes the
// wideband input, beam steering computes the phase commands, and a
// per-beam equalization stage applies them — run functionally end to
// end, with the Imagine timing model showing how pipelining changes the
// beam-steering kernel from memory-bound to compute-bound.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"os"

	"sigkern/internal/core"
	"sigkern/internal/imagine"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/kernels/testsig"
	"sigkern/internal/machines"
	"sigkern/internal/report"
)

func main() {
	// Stage 1: channelize a two-tone wideband input.
	chanBank, err := pfb.New(pfb.DefaultSpec())
	if err != nil {
		log.Fatal(err)
	}
	const n = 64 * 64
	x := make([]complex128, n)
	f1, f2 := 9.0/64.0, 33.0/64.0
	for i := range x {
		a1 := 2 * math.Pi * f1 * float64(i)
		a2 := 2 * math.Pi * f2 * float64(i)
		x[i] = complex(math.Cos(a1), math.Sin(a1)) +
			complex(0.5*math.Cos(a2), 0.5*math.Sin(a2))
	}
	frames, err := chanBank.Process(x)
	if err != nil {
		log.Fatal(err)
	}
	mid := frames[len(frames)/2]
	bank9 := chanBank.ChannelOf(f1)
	fmt.Printf("stage 1 (poly-phase filter bank): %d frames x %d channels\n", len(frames), len(mid))
	fmt.Printf("  tone 1 -> channel %d (|X| = %.2f), tone 2 -> channel %d (|X| = %.2f)\n\n",
		bank9, cmplx.Abs(mid[bank9]),
		chanBank.ChannelOf(f2), cmplx.Abs(mid[chanBank.ChannelOf(f2)]))

	// Stage 2: beam steering computes the phase commands per element.
	spec := beamsteer.PaperSpec()
	tables := testsig.NewBeamTables(spec.Elements, spec.Directions, spec.Dwells, 7)
	phases, err := beamsteer.Steer(spec, tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2 (beam steering): %d phase commands per interval\n\n", spec.Outputs())

	// Stage 3: per-beam equalization — each beam's FIR inverts its test
	// channel, then the beam-steering phase command rotates the output.
	eqSpec := equalize.Spec{Beams: spec.Directions, Taps: 16}
	rho := []float64{0.4, -0.3, 0.2, -0.1}
	bank, err := equalize.NewBank(eqSpec, rho)
	if err != nil {
		log.Fatal(err)
	}
	scale := 2 * math.Pi / float64(int32(1)<<20)
	// Feed channel 9's time series (one sample per frame) through beam
	// 0's channel and equalizer.
	series := make([]complex128, len(frames))
	for f := range frames {
		series[f] = frames[f][bank9]
	}
	distorted := equalize.Channel(rho[0], series)
	cmd := phases[0][0][0]
	eq, err := bank.Apply(0, distorted, cmd, scale)
	if err != nil {
		log.Fatal(err)
	}
	res := equalize.ResidualPower(series, eq, cmd, scale)
	var sig float64
	for _, v := range series {
		sig += cmplx.Abs(v) * cmplx.Abs(v)
	}
	sig /= float64(len(series))
	fmt.Printf("stage 3 (per-beam equalization): residual %.2e vs signal power %.3f (%.0f dB down)\n\n",
		res, sig, 10*math.Log10(sig/res))

	// Timing: the Section 4.4 point — inside the pipeline, beam steering
	// stops being memory-bound on Imagine.
	m := imagine.New(imagine.DefaultConfig())
	isolated, err := core.Run(m, core.BeamSteering, core.Workload{Beam: spec})
	if err != nil {
		log.Fatal(err)
	}
	srf, err := m.RunBeamSteeringSRFTables(spec)
	if err != nil {
		log.Fatal(err)
	}
	piped, err := m.RunBeamSteeringPipelined(spec)
	if err != nil {
		log.Fatal(err)
	}
	rows := [][]string{
		{"isolated (tables from DRAM)", report.KCycles(isolated.Cycles),
			fmt.Sprintf("%.0f%%", 100*isolated.Breakdown.Fraction("memory"))},
		{"tables resident in SRF", report.KCycles(srf.Cycles),
			fmt.Sprintf("%.0f%%", 100*srf.Breakdown.Fraction("memory"))},
		{"pipelined (SRF to SRF)", report.KCycles(piped.Cycles),
			fmt.Sprintf("%.0f%%", 100*piped.Breakdown.Fraction("memory"))},
	}
	if err := report.Table(os.Stdout,
		"Imagine beam steering: isolated kernel vs in-pipeline (paper Section 4.4)",
		[]string{"Mode", "kcycles", "memory share"}, rows); err != nil {
		log.Fatal(err)
	}
	_ = machines.Baseline
}
