package viram

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
)

// RunMatMul implements core.MatMulRunner: a rank-1-update formulation in
// which each C row chunk stays in a vector register while the K loop
// streams B rows past it — the classic vectorization, unit-stride
// throughout, so the kernel is bound by ALU0's FP rate rather than the
// address generators.
func (m *Machine) RunMatMul(spec matmul.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(matmul.VerifyBlocked(spec), func() (core.Result, error) {
		m.reset()
		aBase := m.alloc(spec.M * spec.K)
		bBase := m.alloc(spec.K * spec.N)
		cBase := m.alloc(spec.M * spec.N)
		p := m.newProg()
		colChunks := chunks(spec.N, m.cfg.MVL)
		for i := 0; i < spec.M; i++ {
			j0 := 0
			for _, vl := range colChunks {
				// C chunk lives in v0 for the whole K loop.
				p.load(vl, cBase+i*spec.N+j0, 0)
				for k := 0; k < spec.K; k++ {
					// Scalar A element folded as the multiplier.
					p.load(vl, bBase+k*spec.N+j0, 1)
					p.fmul(vl, 2, 1)    // b * a(scalar)
					p.fadd(vl, 0, 0, 2) // accumulate into the C chunk
				}
				p.store(vl, cBase+i*spec.N+j0, 0)
				p.scalar(2)
				_ = aBase
				j0 += vl
			}
		}
		// B streams past every output row (one word per MAC — vector
		// registers hold C, not B), plus C in/out and the A scalars.
		return m.finish(core.MatMul, spec.Flops(),
			spec.MACs()+2*uint64(spec.M)*uint64(spec.N)+uint64(spec.M)*uint64(spec.K)), nil
	})
}
