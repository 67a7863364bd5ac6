package ppc

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// srcBase/dstBase lay the corner-turn matrices out in the simulated
// byte-address space, separated so they do not alias cache sets
// artificially.
const (
	srcBase = 0
	dstBase = 8 << 20
)

// cslcRadix is the FFT radix both G4 code generators run.
const cslcRadix = fft.Radix2

// Formulation implements core.Machine: the corner turn's blocked loop
// nest at the spec's tile edge, and radix-2 CSLC.
func (m *Machine) Formulation(w core.Workload) core.Formulation {
	return core.Formulation{CornerTurn: cornerturn.Transposer{Block: w.CornerTurn.BlockSize}, CSLC: cslcRadix}
}

// RunCornerTurn implements core.Machine: a 16x16-blocked transpose. The
// destination's 16 rows within a block are 4 KB apart and therefore map
// to the same L1 set — more rows than ways — so roughly half the
// destination lines are evicted before reuse. That conflict pattern,
// fed through the cache simulation, is what makes the G4 corner turn
// slow, and why AltiVec barely helps ("does not significantly improve
// performance for the corner turn, which is limited by main memory
// bandwidth").
func (m *Machine) RunCornerTurn(spec cornerturn.Spec) (core.Result, error) {
	m.Reset()
	block := spec.BlockSize
	// Cache trace: the blocked loop nest's actual accesses.
	m.walk(m.walkKey(core.CornerTurn, spec), func() {
		for r0 := 0; r0 < spec.Rows; r0 += block {
			for c0 := 0; c0 < spec.Cols; c0 += block {
				for r := r0; r < minInt(r0+block, spec.Rows); r++ {
					for c := c0; c < minInt(c0+block, spec.Cols); c++ {
						m.access(srcBase+(r*spec.Cols+c)*4, false)
						m.access(dstBase+(c*spec.Rows+r)*4, true)
					}
				}
			}
		}
	})
	elems := spec.Words()
	var compute uint64
	if m.Vector() {
		// 4x4 sub-tiles: 4 vector loads, 8 merges (vperm), 4 vector
		// stores, plus loop bookkeeping, per 16 elements.
		compute = m.loopCycles(loopMix{
			name: "vtranspose", iters: elems / 16,
			intOps: 6, vecOps: 8, lsOps: 8, critical: 8,
		})
	} else {
		compute = m.loopCycles(loopMix{
			name: "transpose", iters: elems,
			intOps: 4, lsOps: 2, critical: 4,
		})
	}
	cycles := compute + m.memStallCycles()
	return m.result(core.CornerTurn, cycles, 2*elems, 2*elems), nil
}

// RunCSLC implements core.Machine. The scalar variant runs compiled
// radix-2 butterflies whose complex arithmetic serializes through the
// single FPU; the AltiVec variant is the paper's hand-inserted 4-wide
// version, which pays extra permutes for the interleaved complex layout
// but software-pipelines well (the source of the paper's ~6x gain).
func (m *Machine) RunCSLC(spec cslc.Spec) (core.Result, error) {
	spec.Radix = cslcRadix
	m.Reset()
	// Cache trace: sub-band extraction reads each channel's windows from
	// the channel arrays; butterfly working sets are L1-resident after
	// extraction; outputs stream to a result array.
	m.walk(m.walkKey(core.CSLC, spec), func() {
		hop := spec.Hop() * 8 // bytes between window starts (complex64)
		chBytes := spec.Samples * 8
		for ch := 0; ch < spec.Channels(); ch++ {
			base := ch * chBytes
			for b := 0; b < spec.SubBands; b++ {
				for s := 0; s < spec.FFTSize; s++ {
					m.access(base+b*hop+s*8, false)
					m.access(base+b*hop+s*8+4, false)
				}
			}
		}
		outBase := spec.Channels() * chBytes
		for mch := 0; mch < spec.MainChannels; mch++ {
			for b := 0; b < spec.SubBands; b++ {
				for s := 0; s < spec.FFTSize; s++ {
					m.access(outBase+(mch*spec.SubBands+b)*spec.FFTSize*8+s*8, true)
				}
			}
		}
	})

	plan, err := fft.NewPlan(spec.FFTSize, spec.Radix, false)
	if err != nil {
		return core.Result{}, err
	}
	bflies := plan.Counts().Flops() / 10 // radix-2: 10 flops per butterfly
	totalBflies := bflies * (spec.ForwardFFTs() + spec.InverseFFTs())
	weightIters := uint64(spec.MainChannels) * uint64(spec.SubBands) * uint64(spec.FFTSize)

	var compute uint64
	if m.Vector() {
		// Four butterflies per iteration: ~10 vector flops plus permutes
		// for the interleaved re/im layout and alignment. Hand-inserted
		// intrinsics pipeline only partially across iterations — the
		// dependence depth (~30 cycles: the complex multiply-add chain at
		// vector latency, plus permute hops) governs, which is what the
		// paper's measured 6x (not 4x-ideal x scheduling) gain implies.
		vcrit := uint64(6*m.cfg.VecLatency + 6)
		compute = m.loopCycles(loopMix{
			name: "vbutterfly", iters: totalBflies / 4,
			intOps: 4, vecOps: 14, lsOps: 8, critical: vcrit,
		})
		compute += m.loopCycles(loopMix{
			name: "vweight", iters: weightIters / 4,
			intOps: 3, vecOps: 10, lsOps: 7, critical: uint64(3 * m.cfg.VecLatency),
		})
	} else {
		// Compiled complex arithmetic: every butterfly operand round-trips
		// through memory (complex structs, no unrolling), so each of the
		// ~10 FP operations pays load-use plus FPU latency in a serial
		// chain. This depth is calibrated against the published G4
		// measurement; see EXPERIMENTS.md for the residual gap.
		crit := uint64(10*(m.cfg.FPLatency+1) + 5)
		compute = m.loopCycles(loopMix{
			name: "butterfly", iters: totalBflies,
			intOps: 8, fpOps: 10, lsOps: 10, critical: crit,
		})
		compute += m.loopCycles(loopMix{
			name: "weight", iters: weightIters,
			intOps: 6, fpOps: 16, lsOps: 12, critical: uint64(6 * m.cfg.FPLatency),
		})
	}
	// Extraction/repack copies (both variants move every sample twice).
	compute += m.loopCycles(loopMix{
		name: "extract", iters: uint64(spec.Channels()) * uint64(spec.SubBands) * uint64(spec.FFTSize),
		intOps: 2, lsOps: 4, critical: 3,
	})
	cycles := compute + m.memStallCycles()
	counts, err := spec.TotalCounts()
	if err != nil {
		return core.Result{}, err
	}
	return m.result(core.CSLC, cycles, counts.Flops(), counts.Loads+counts.Stores), nil
}

// RunBeamSteering implements core.Machine: the tables are L1-resident
// after the first dwell; the output stream write-misses its way through
// the store queue.
func (m *Machine) RunBeamSteering(spec beamsteer.Spec) (core.Result, error) {
	m.Reset()
	m.walk(m.walkKey(core.BeamSteering, spec), func() {
		calBase, gradBase := 0, spec.Elements*4
		outAddr := 2 * spec.Elements * 4
		for dw := 0; dw < spec.Dwells; dw++ {
			for d := 0; d < spec.Directions; d++ {
				for e := 0; e < spec.Elements; e++ {
					m.access(calBase+e*4, false)
					m.access(gradBase+e*4, false)
					m.access(outAddr, true)
					outAddr += 4
				}
			}
		}
	})
	outputs := spec.Outputs()
	var compute uint64
	if m.Vector() {
		// Table loads need lvx plus alignment permutes; the add chain
		// runs at vector latency.
		compute = m.loopCycles(loopMix{
			name: "vphase", iters: outputs / 4,
			intOps: 2, vecOps: 6, lsOps: 4, critical: 8,
		})
	} else {
		compute = m.loopCycles(loopMix{
			name: "phase", iters: outputs,
			intOps: 8, lsOps: 3, critical: 8,
		})
	}
	cycles := compute + m.memStallCycles()
	return m.result(core.BeamSteering, cycles,
		outputs*spec.OpsPerOutput(), outputs*spec.MemPerOutput()), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
