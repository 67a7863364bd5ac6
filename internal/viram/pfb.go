package viram

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/pfb"
)

// RunPFB implements the extension channelizer: vectorized across frames
// (the natural VIRAM batching — every vector lane computes the same
// branch of a different frame), with the per-branch FIR reading strided
// across the frame dimension and the cross-branch FFT running as a
// radix-4 transform over branch planes.
func (m *Machine) RunPFB(w pfb.Workload) (core.Result, error) {
	if err := w.ValidateWorkload(); err != nil {
		return core.Result{}, err
	}
	if fft.BestRadix(w.Channels) != fft.Radix4 {
		return core.Result{}, fmt.Errorf(
			"viram: channel count %d is not a power of four; the cross-branch transform is emitted radix-4", w.Channels)
	}
	return core.Checked(w.Verify(), func() (core.Result, error) {
		m.reset()
		ch := w.Channels
		inRe := m.alloc(w.Samples)
		inIm := m.alloc(w.Samples)
		brRe := m.alloc(ch * m.cfg.MVL)
		brIm := m.alloc(ch * m.cfg.MVL)
		outRe := m.alloc(w.FrameCount() * ch)
		outIm := m.alloc(w.FrameCount() * ch)

		p := m.newProg()
		f0 := 0
		for _, vl := range chunks(w.FrameCount(), m.cfg.MVL) {
			// FIR: branch p of frames f0..f0+vl-1. Sample index is
			// (f*ch + p + t*ch); across frames the stride is ch words.
			for br := 0; br < ch; br++ {
				for t := 0; t < w.Taps; t++ {
					base := f0*ch + br + t*ch
					p.loadStride(vl, inRe+base, ch, 1)
					p.loadStride(vl, inIm+base, ch, 2)
					// Real coefficient (scalar broadcast) times complex data,
					// accumulated into v0 (re) and v3 (im).
					p.fmul(vl, 4, 1)
					p.fadd(vl, 0, 0, 4)
					p.fmul(vl, 5, 2)
					p.fadd(vl, 3, 3, 5)
				}
				p.store(vl, brRe+br*vl, 0)
				p.store(vl, brIm+br*vl, 3)
				p.scalar(2)
			}
			// Cross-branch FFT: 64 = 4^3, a pure radix-4 transform over the
			// branch planes (digit reversal included).
			m.emitRadix4Half(p, ch, vl, brRe, brIm)
			// Emit the frame's channels to the output arrays.
			for c := 0; c < ch; c++ {
				p.load(vl, brRe+c*vl, 6)
				p.store(vl, outRe+f0*ch+c*vl, 6)
				p.load(vl, brIm+c*vl, 7)
				p.store(vl, outIm+f0*ch+c*vl, 7)
				if c%8 == 0 {
					p.scalar(2)
				}
			}
			f0 += vl
		}
		return m.finish(core.KernelID("pfb"), w.TotalOps(),
			2*uint64(w.Samples)*uint64(w.Taps)+2*uint64(w.FrameCount())*uint64(w.Channels)), nil
	})
}
