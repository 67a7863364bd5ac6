package ppc

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
)

// RunMatMul implements core.MatMulRunner: the blocked triple loop. The
// cache trace walks the blocked access pattern at line granularity (the
// per-element inner loop hits in L1 by construction once a line is
// resident, so line-level tracing captures exactly the misses).
func (m *Machine) RunMatMul(spec matmul.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(matmul.VerifyBlocked(spec), func() (core.Result, error) {
		m.Reset()
		m.hierarchy() // this walk is not memoized
		const (
			aBase = 0
			bBase = 16 << 20
			cBase = 32 << 20
		)
		block := spec.BlockSize
		line := m.cfg.L1.LineBytes
		// Cache trace: one access per touched line per block pass.
		touch := func(base, row, col, rowLen, rows, cols int, write bool) {
			for r := 0; r < rows; r++ {
				start := base + ((row+r)*rowLen+col)*4
				for o := 0; o < cols*4; o += line {
					m.access(start+o, write)
				}
			}
		}
		for i0 := 0; i0 < spec.M; i0 += block {
			for k0 := 0; k0 < spec.K; k0 += block {
				for j0 := 0; j0 < spec.N; j0 += block {
					touch(aBase, i0, k0, spec.K, minInt(block, spec.M-i0), minInt(block, spec.K-k0), false)
					touch(bBase, k0, j0, spec.N, minInt(block, spec.K-k0), minInt(block, spec.N-j0), false)
					touch(cBase, i0, j0, spec.N, minInt(block, spec.M-i0), minInt(block, spec.N-j0), true)
				}
			}
		}

		var compute uint64
		if m.Vector() {
			// Four MACs per vector multiply-add pair; B rows are unit stride
			// so no permutes; C chunks accumulate in registers.
			compute = m.loopCycles(loopMix{
				name: "vmac", iters: spec.MACs() / 4,
				intOps: 1, vecOps: 2, lsOps: 1, critical: 2,
			})
		} else {
			// Scalar: load B, multiply, accumulate; the j-loop iterations are
			// independent so the FPU pipelines them (resource bound, not
			// latency bound).
			compute = m.loopCycles(loopMix{
				name: "mac", iters: spec.MACs(),
				intOps: 2, fpOps: 2, lsOps: 1, critical: 3,
			})
		}
		cycles := compute + m.memStallCycles()
		words := uint64(spec.M)*uint64(spec.K) + uint64(spec.K)*uint64(spec.N) + 2*uint64(spec.M)*uint64(spec.N)
		return m.result(core.MatMul, cycles, spec.Flops(), words), nil
	})
}
