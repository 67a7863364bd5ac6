package imagine

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/pfb"
)

// pfbBatchFrames is the number of frames one kernel invocation processes
// (enough iterations to amortize the software-pipeline fill).
const pfbBatchFrames = 64

// RunPFB implements the extension channelizer as a streaming kernel: the
// wideband input streams through the SRF, each cluster computes one
// branch output per iteration (FIR plus its amortized share of the
// cross-branch FFT), and the channelized frames stream back out.
func (m *Machine) RunPFB(w pfb.Workload) (core.Result, error) {
	if err := w.ValidateWorkload(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(w.Verify(), func() (core.Result, error) {
		m.reset()
		frames := w.FrameCount()
		// Per-iteration operation mix per cluster: one branch output = Taps
		// real-by-complex MACs (2 muls + 2 adds each) plus the FFT share
		// (radix-2 across Channels, divided per element).
		firMuls := 2 * w.Taps
		firAdds := 2 * w.Taps
		fftOps := int(w.OpsPerFrame()-uint64(4*w.Channels*w.Taps)) / w.Channels
		kernel := KernelDesc{
			Name:        "pfb",
			Iterations:  pfbBatchFrames * w.Channels / m.cfg.Clusters,
			AddsPerIter: firAdds + fftOps*3/5,
			MulsPerIter: firMuls + fftOps*2/5,
		}

		var pendingStore uint64
		pendingWords := 0
		for f0 := 0; f0 < frames; f0 += pfbBatchFrames {
			batch := pfbBatchFrames
			if f0+batch > frames {
				batch = frames - f0
			}
			inWords := 2 * batch * w.Channels // new samples for this batch
			ld := m.memStream(inWords, 1, false, 0)
			if pendingWords > 0 {
				m.memStream(pendingWords, 1, true, pendingStore)
			}
			ready := m.srfStream(inWords, ld)
			k := kernel
			k.Iterations = batch * w.Channels / m.cfg.Clusters
			kDone := m.runKernel(k, ready)
			pendingStore = m.srfStream(2*batch*w.Channels, kDone)
			pendingWords = 2 * batch * w.Channels
		}
		if pendingWords > 0 {
			m.memStream(pendingWords, 1, true, pendingStore)
		}
		r := m.finish(core.KernelID("pfb"), w.TotalOps(),
			2*uint64(w.Samples)+2*uint64(frames)*uint64(w.Channels))
		return r, nil
	})
}

// RunPipeline times the paper's Section 4.4 application pipeline on
// Imagine as one schedule: per batch of frames, the channelizer kernel,
// the beam-phase kernel, and the per-beam equalizer kernel run back to
// back on the cluster array with their intermediate streams living in
// the SRF — only the wideband input and the equalized beams touch DRAM.
func (m *Machine) RunPipeline(w pfb.Workload, bs beamsteer.Spec, eq equalize.Spec) (core.Result, error) {
	if err := w.ValidateWorkload(); err != nil {
		return core.Result{}, err
	}
	if err := eq.Validate(); err != nil {
		return core.Result{}, err
	}
	if err := core.Prove(core.BeamSteering, core.Workload{Beam: bs}, core.Formulation{}); err != nil {
		return core.Result{}, err
	}
	return core.Checked(w.Verify(), func() (core.Result, error) {
		m.reset()
		frames := w.FrameCount()
		fftOps := int(w.OpsPerFrame()-uint64(4*w.Channels*w.Taps)) / w.Channels
		chanKernel := KernelDesc{
			Name:        "pfb",
			AddsPerIter: 2*w.Taps + fftOps*3/5,
			MulsPerIter: 2*w.Taps + fftOps*2/5,
		}
		phaseKernel := KernelDesc{Name: "beam-phase", AddsPerIter: 6}
		// Per equalized sample: Taps complex MACs + the rotation.
		eqKernel := KernelDesc{
			Name:        "equalize",
			AddsPerIter: 4*eq.Taps + 2,
			MulsPerIter: 4*eq.Taps + 4,
		}

		var pendingStore uint64
		pendingWords := 0
		for f0 := 0; f0 < frames; f0 += pfbBatchFrames {
			batch := pfbBatchFrames
			if f0+batch > frames {
				batch = frames - f0
			}
			inWords := 2 * batch * w.Channels
			ld := m.memStream(inWords, 1, false, 0)
			if pendingWords > 0 {
				m.memStream(pendingWords, 1, true, pendingStore)
			}
			ready := m.srfStream(inWords, ld)

			k := chanKernel
			k.Iterations = batch * w.Channels / m.cfg.Clusters
			done := m.runKernel(k, ready)
			done = m.srfStream(2*batch*w.Channels, done)

			k = phaseKernel
			k.Iterations = batch * eq.Beams / m.cfg.Clusters
			if k.Iterations == 0 {
				k.Iterations = 1
			}
			done = m.runKernel(k, done)

			k = eqKernel
			k.Iterations = batch * eq.Beams / m.cfg.Clusters
			if k.Iterations == 0 {
				k.Iterations = 1
			}
			done = m.runKernel(k, done)

			outWords := 2 * batch * eq.Beams
			pendingStore = m.srfStream(outWords, done)
			pendingWords = outWords
		}
		if pendingWords > 0 {
			m.memStream(pendingWords, 1, true, pendingStore)
		}
		ops := w.TotalOps() +
			uint64(frames)*uint64(eq.Beams)*6 +
			uint64(frames)*uint64(eq.Beams)*eq.OpsPerSample()
		r := m.finish(core.KernelID("pipeline"), ops,
			2*uint64(w.Samples)+2*uint64(frames)*uint64(eq.Beams))
		r.Notes = append(r.Notes, "three-stage pipeline: channelize -> steer -> equalize, SRF-resident intermediates")
		return r, nil
	})
}
