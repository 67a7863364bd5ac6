// Radar example: the full coherent side-lobe canceller chain as a radar
// engineer would use it — synthesize a jammed scene, estimate the
// adaptive weights, cancel, measure the cancellation depth, and then ask
// each architecture model what the timed pipeline costs per processing
// interval (i.e., whether it sustains the radar's real-time budget).
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"sigkern/internal/core"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/testsig"
	"sigkern/internal/machines"
	"sigkern/internal/report"
)

func main() {
	spec := cslc.PaperSpec(fft.MixedRadix42)

	// A strong jammer 40 dB above a weak target, as seen through the
	// main and auxiliary channels.
	scene := testsig.DefaultScene(spec.Samples)
	channels := scene.Channels(spec.MainChannels)
	fmt.Printf("scene: target %.3f amp at f=%.3f, jammer %.1f amp at f=%.3f, %d samples x %d channels\n",
		scene.TargetAmp, scene.TargetFreq, scene.JammerAmp, scene.JammerFreq,
		spec.Samples, spec.Channels())

	// Adaptive weights from the sub-band ensemble.
	weights, err := cslc.EstimateWeights(spec, channels)
	if err != nil {
		log.Fatal(err)
	}

	// Cancel, and compare against the uncancelled pipeline.
	cancelled, err := cslc.Run(spec, channels, weights)
	if err != nil {
		log.Fatal(err)
	}
	passthrough, err := cslc.Run(spec, channels, cslc.NewWeights(spec))
	if err != nil {
		log.Fatal(err)
	}
	for m := 0; m < spec.MainChannels; m++ {
		before := cslc.TotalPower(passthrough.Cancelled[m])
		after := cslc.TotalPower(cancelled.Cancelled[m])
		fmt.Printf("main channel %d: output power %.4f -> %.6f (%.1f dB of cancellation)\n",
			m, before, after, 10*math.Log10(before/after))
	}

	// What does the timed pipeline cost on each machine?
	fmt.Println("\nCSLC processing-interval cost per machine:")
	var rows [][]string
	for _, m := range machines.All() {
		r, err := core.Run(m, core.CSLC, core.Workload{CSLC: spec})
		if err != nil {
			log.Fatal(err)
		}
		ms := r.TimeMS(m.Params().ClockMHz)
		// An 8K-sample interval at, say, 10 MHz complex sample rate is
		// 0.82 ms of data: can the machine keep up?
		budget := 8192.0 / 10e6 * 1e3
		verdict := "real time"
		if ms > budget {
			verdict = fmt.Sprintf("%.1fx too slow", ms/budget)
		}
		rows = append(rows, []string{
			m.Name(), report.KCycles(r.Cycles), fmt.Sprintf("%.3f ms", ms), verdict,
		})
	}
	err = report.Table(os.Stdout, "",
		[]string{"Machine", "kcycles", "time", "10 MHz stream"}, rows)
	if err != nil {
		log.Fatal(err)
	}
}
