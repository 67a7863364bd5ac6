package rawsim

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/pfb"
)

// RunPFB implements the extension channelizer in the data-parallel MIMD
// style of the paper's Raw CSLC: frames distribute round-robin across
// tiles, each tile keeps its filter history in local memory, streams the
// frame's new samples in from its port, and computes the FIR and the
// cross-branch FFT locally.
func (m *Machine) RunPFB(w pfb.Workload) (core.Result, error) {
	if err := w.ValidateWorkload(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(w.Verify(), func() (core.Result, error) {
		m.reset()
		plan, err := fft.NewPlan(w.Channels, fft.Radix2, false)
		if err != nil {
			return core.Result{}, err
		}
		fftCounts := plan.Counts()
		frames := w.FrameCount()
		tiles := m.Tiles()
		newWords := 2 * w.Channels // fresh complex samples per frame
		firFlops := 4 * w.Channels * w.Taps
		firLoads := 2 * w.Channels * w.Taps // history reads (coefficients in registers)
		for f := 0; f < frames; f++ {
			tile := f % tiles
			// Fresh samples stream in; the tile stores them into its history
			// ring.
			m.portIn(tile, newWords, true)
			// FIR over the local history.
			m.compute(tile, firFlops, catCompute)
			m.localMem(tile, firLoads)
			m.compute(tile, int(addrLoopFraction*float64(firFlops+firLoads)), catAddrLoop)
			// Cross-branch FFT.
			m.compute(tile, int(fftCounts.Flops()), catCompute)
			m.localMem(tile, int(fftCounts.Loads+fftCounts.Stores))
			m.compute(tile, int(addrLoopFraction*float64(fftCounts.Flops()+fftCounts.Loads+fftCounts.Stores)), catAddrLoop)
			// The frame streams back out.
			m.portOut(tile, newWords, true)
		}
		return m.finish(core.KernelID("pfb"), w.TotalOps(),
			2*uint64(w.Samples)+2*uint64(frames)*uint64(w.Channels)), nil
	})
}
