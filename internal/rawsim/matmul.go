package rawsim

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/matmul"
)

// mmBlock is the matmul tile edge on Raw: a 32x32 block keeps three
// operand blocks (A panel, B panel, C accumulator — 4 KB each) inside a
// tile's 32 KB data memory with room for code constants.
const mmBlock = 32

// mmLSPerMAC is the local loads/stores per multiply-add with 4x4
// register blocking: each 16-MAC register tile reloads 4+4 operand words
// (0.5/MAC) and C stays in registers until the k-panel ends.
const mmLSPerMAC = 2 // expressed as numerator over mmLSDen

const mmLSDen = 4

// RunMatMul implements core.MatMulRunner: the block-distributed
// formulation from the Raw literature — each tile owns C blocks, streams
// A and B panels in from its DRAM port, and runs register-blocked MACs
// out of its local memory.
func (m *Machine) RunMatMul(spec matmul.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	return core.Checked(matmul.VerifyBlocked(spec), func() (core.Result, error) {
		if spec.M%mmBlock != 0 || spec.N%mmBlock != 0 || spec.K%mmBlock != 0 {
			return core.Result{}, fmt.Errorf("rawsim: dimensions must be multiples of %d", mmBlock)
		}

		m.reset()
		// Three blocks must fit in tile memory.
		if need := 3 * mmBlock * mmBlock * 4; need > m.cfg.TileMem.CapacityBytes {
			return core.Result{}, fmt.Errorf("rawsim: %d-byte working set exceeds tile memory", need)
		}
		blocksR := spec.M / mmBlock
		blocksC := spec.N / mmBlock
		panels := spec.K / mmBlock
		tiles := m.Tiles()
		blockWords := mmBlock * mmBlock
		macsPerPanel := mmBlock * mmBlock * mmBlock

		for b := 0; b < blocksR*blocksC; b++ {
			tile := b % tiles
			for kp := 0; kp < panels; kp++ {
				// A and B panels stream in; the tile stores them locally.
				m.portIn(tile, 2*blockWords, true)
				// Register-blocked MACs: two ALU ops per MAC plus the
				// amortized operand reloads and loop control.
				m.compute(tile, 2*macsPerPanel, catCompute)
				m.localMem(tile, macsPerPanel*mmLSPerMAC/mmLSDen)
				m.compute(tile, macsPerPanel/16, catAddrLoop)
			}
			// The finished C block streams back out.
			m.portOut(tile, blockWords, true)
		}
		words := uint64(blocksR*blocksC) * uint64(panels) * uint64(2*blockWords)
		words += uint64(blocksR*blocksC) * uint64(blockWords)
		return m.finish(core.MatMul, spec.Flops(), words), nil
	})
}
