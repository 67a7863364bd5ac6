package imagine

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
)

// RunMatMul implements core.MatMulRunner: a column-block formulation in
// which a K x blockCols panel of B is resident in the SRF while rows of
// A stream past it, each kernel invocation producing one row of a C
// column block. With one multiply and one add per MAC the inner loop's
// initiation interval is a single cycle — matrix multiply is the kernel
// Imagine's ALU mix was built for.
func (m *Machine) RunMatMul(spec matmul.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(matmul.VerifyBlocked(spec), func() (core.Result, error) {
		m.reset()
		// Column block width: the B panel (K x width words) must fit half
		// the SRF, leaving room for A/C double buffering.
		width := m.cfg.SRF.CapacityBytes / 2 / 4 / spec.K
		if width > spec.N {
			width = spec.N
		}
		if width < 1 {
			return core.Result{}, fmt.Errorf("imagine: K=%d too deep for the SRF", spec.K)
		}
		for j0 := 0; j0 < spec.N; j0 += width {
			cols := width
			if j0+cols > spec.N {
				cols = spec.N - j0
			}
			// Load the B panel once per column block.
			panelDone := m.memStream(spec.K*cols, 1, false, 0)
			var pendingStore uint64
			pendingWords := 0
			for i := 0; i < spec.M; i++ {
				rowDone := m.memStream(spec.K, 1, false, 0)
				if pendingWords > 0 {
					m.memStream(pendingWords, 1, true, pendingStore)
				}
				ready := maxAll([]uint64{panelDone, rowDone})
				ready = m.srfStream(spec.K, ready)
				k := KernelDesc{
					Name:       "matmul-row",
					Iterations: spec.K * cols / m.cfg.Clusters,
					// One multiply and one accumulate per MAC per cluster.
					AddsPerIter: 1, MulsPerIter: 1,
				}
				kDone := m.runKernel(k, ready)
				pendingStore = m.srfStream(cols, kDone)
				pendingWords = cols
			}
			if pendingWords > 0 {
				m.memStream(pendingWords, 1, true, pendingStore)
			}
		}
		return m.finish(core.MatMul, spec.Flops(),
			uint64(spec.K)*uint64(spec.N)+uint64(spec.M)*uint64(spec.K)*uint64((spec.N+width-1)/width)+uint64(spec.M)*uint64(spec.N)), nil
	})
}
