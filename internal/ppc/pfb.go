package ppc

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/pfb"
)

// RunPFB implements the extension channelizer on the baseline: the input
// streams through the cache once per tap (the polyphase history walk),
// the FIR runs as real-by-complex MACs, and the cross-branch FFT uses
// the same butterfly cost model as the CSLC.
func (m *Machine) RunPFB(w pfb.Workload) (core.Result, error) {
	if err := w.ValidateWorkload(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(w.Verify(), func() (core.Result, error) {
		m.Reset()
		m.hierarchy() // this walk is not memoized
		frames := w.FrameCount()
		// Cache trace: each frame reads its new samples and revisits the
		// prototype-length history (resident after the first touch); outputs
		// stream to a result array.
		const outBase = 64 << 20
		for f := 0; f < frames; f++ {
			base := f * w.Channels * 8
			for i := 0; i < w.Channels; i++ {
				m.access(base+i*8, false)
				m.access(base+i*8+4, false)
			}
			for c := 0; c < w.Channels; c++ {
				m.access(outBase+(f*w.Channels+c)*8, true)
			}
		}

		plan, err := fft.NewPlan(w.Channels, fft.Radix2, false)
		if err != nil {
			return core.Result{}, err
		}
		bflies := plan.Counts().Flops() / 10
		macs := uint64(frames) * uint64(w.Channels) * uint64(w.Taps)

		var compute uint64
		if m.Vector() {
			compute = m.loopCycles(loopMix{
				name: "vfir", iters: macs / 4,
				intOps: 1, vecOps: 3, lsOps: 2, critical: 4,
			})
			compute += m.loopCycles(loopMix{
				name: "vbutterfly", iters: uint64(frames) * bflies / 4,
				intOps: 4, vecOps: 14, lsOps: 8, critical: uint64(6*m.cfg.VecLatency + 6),
			})
		} else {
			// The FIR accumulator chains through the FPU.
			compute = m.loopCycles(loopMix{
				name: "fir", iters: macs,
				intOps: 3, fpOps: 4, lsOps: 3, critical: uint64(2 * m.cfg.FPLatency),
			})
			compute += m.loopCycles(loopMix{
				name: "butterfly", iters: uint64(frames) * bflies,
				intOps: 8, fpOps: 10, lsOps: 10, critical: uint64(10*(m.cfg.FPLatency+1) + 5),
			})
		}
		cycles := compute + m.memStallCycles()
		return m.result(core.KernelID("pfb"), cycles, w.TotalOps(),
			2*uint64(w.Samples)+2*uint64(frames)*uint64(w.Channels)), nil
	})
}
