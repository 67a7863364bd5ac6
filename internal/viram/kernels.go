package viram

import (
	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// prog is a kernel's vector program builder. Register operands default
// to "none" so a forgotten field cannot silently alias vector register
// zero. A program issues each instruction to its machine's scoreboard as
// it is emitted; a collecting builder (m nil) appends to insts instead,
// for the butterfly phases the pipeline reorders.
type prog struct {
	m     *Machine
	insts []Inst
}

func (p *prog) emit(in Inst) {
	if p.m == nil {
		p.insts = append(p.insts, in)
		return
	}
	p.m.issue(&in)
}

func (p *prog) load(vl, base, dst int) {
	p.emit(Inst{Op: VLoad, VL: vl, Base: base, Stride: 1, Dst: dst, Src1: -1, Src2: -1})
}

func (p *prog) loadStride(vl, base, stride, dst int) {
	p.emit(Inst{Op: VLoadStride, VL: vl, Base: base, Stride: stride, Dst: dst, Src1: -1, Src2: -1})
}

func (p *prog) store(vl, base, src int) {
	p.emit(Inst{Op: VStore, VL: vl, Base: base, Stride: 1, Dst: -1, Src1: src, Src2: -1})
}

func (p *prog) fmul(vl, dst, src int) {
	p.emit(Inst{Op: VMulF, VL: vl, Dst: dst, Src1: src, Src2: -1})
}

func (p *prog) fadd(vl, dst, a, b int) {
	p.emit(Inst{Op: VAddF, VL: vl, Dst: dst, Src1: a, Src2: b})
}

func (p *prog) iadd(vl, dst, a, b int) {
	p.emit(Inst{Op: VAddI, VL: vl, Dst: dst, Src1: a, Src2: b})
}

func (p *prog) shift(vl, dst, src int) {
	p.emit(Inst{Op: VShift, VL: vl, Dst: dst, Src1: src, Src2: -1})
}

func (p *prog) scalar(cost int) {
	p.emit(Inst{Op: Scalar, Cost: cost, Dst: -1, Src1: -1, Src2: -1})
}

// chunks splits n elements into vector-length pieces of at most mvl.
// Callers iterating the same split repeatedly should hoist the call out
// of their loops; the split depends only on (n, mvl).
func chunks(n, mvl int) []int {
	var out []int
	for n > 0 {
		c := mvl
		if n < c {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}

// newProg returns a program that issues to m. A kernel allocates its
// arrays first: alloc panics once an instruction has issued.
func (m *Machine) newProg() *prog { return &prog{m: m} }

// finish assembles the core.Result of the program issued since the last
// reset.
func (m *Machine) finish(kernel core.KernelID, ops, words uint64) core.Result {
	res := m.result()
	return core.Result{
		Machine:   m.Name(),
		Kernel:    kernel,
		Cycles:    res.Cycles,
		Breakdown: res.Breakdown,
		Stats:     res.Stats,
		Ops:       ops,
		Words:     words,
	}
}

// Formulation implements core.Machine: the corner turn in column order
// (RunCornerTurn's program walks the source one column at a time, rows
// in order: one strip of every row), and CSLC at fft.BestRadix.
func (m *Machine) Formulation(w core.Workload) core.Formulation {
	return core.Formulation{CornerTurn: cornerturn.Transposer{Strip: w.CornerTurn.Rows}, CSLC: fft.BestRadix(w.CSLC.FFTSize)}
}

// RunCornerTurn implements core.Machine. The program follows the paper's
// VIRAM algorithm: strided loads of matrix columns (with row padding to
// spread DRAM banks) staged through vector registers, sequential stores
// to the destination.
func (m *Machine) RunCornerTurn(spec cornerturn.Spec) (core.Result, error) {
	m.reset()
	srcStride := spec.Cols + m.cfg.PadWords
	srcBase := m.alloc(spec.Rows * srcStride)
	dstBase := m.alloc(spec.Rows * spec.Cols)
	p := m.newProg()
	rowChunks := chunks(spec.Rows, m.cfg.MVL)
	for c := 0; c < spec.Cols; c++ {
		r0 := 0
		for _, vl := range rowChunks {
			p.loadStride(vl, srcBase+r0*srcStride+c, srcStride, 0)
			p.store(vl, dstBase+c*spec.Rows+r0, 0)
			p.scalar(2)
			r0 += vl
		}
	}
	return m.finish(core.CornerTurn, 2*spec.Words(), 2*spec.Words()), nil
}

// RunCornerTurnPermute is the alternative corner-turn formulation the
// paper's implementation rejected: unit-stride loads at the full
// 8-word-per-cycle datapath, with the transpose done by in-register
// permutes (as AltiVec does) instead of strided address generation. The
// permutes execute on ALU0 only, so what the memory system gains the
// (single) permute-capable unit gives back — the quantitative case for
// the strided-load-plus-padding design the paper describes. It proves
// strips of eight rows, its panels' order.
func (m *Machine) RunCornerTurnPermute(spec cornerturn.Spec) (core.Result, error) {
	const panelRows = 8
	proof := core.Prove(core.CornerTurn, core.Workload{CornerTurn: spec}, core.Formulation{CornerTurn: cornerturn.Transposer{Strip: panelRows}})
	return core.Checked(proof, func() (core.Result, error) {
		m.reset()
		srcBase := m.alloc(spec.Rows * spec.Cols)
		dstBase := m.alloc(spec.Rows * spec.Cols)
		p := m.newProg()
		// Process 8x64 panels: eight unit-stride row loads fill v0..v7, a
		// permute network reassembles 64 8-element column groups, and eight
		// stores emit them. Each element passes through one permute slot.
		colChunks := chunks(spec.Cols, m.cfg.MVL)
		for r0 := 0; r0 < spec.Rows; r0 += panelRows {
			c0 := 0
			for _, vl := range colChunks {
				for r := 0; r < panelRows && r0+r < spec.Rows; r++ {
					p.load(vl, srcBase+(r0+r)*spec.Cols+c0, r)
				}
				// Transpose the panel in registers: one permute pass per
				// source register (vl elements each, ALU0 only).
				for r := 0; r < panelRows && r0+r < spec.Rows; r++ {
					p.emit(Inst{Op: VPerm, VL: vl, Dst: 8 + r, Src1: r, Src2: -1})
				}
				// Store the transposed groups: the destination addresses are
				// short sequential runs at column-major positions; each store
				// covers one source row's worth, strided by the destination
				// row length.
				for r := 0; r < panelRows && r0+r < spec.Rows; r++ {
					p.emit(Inst{Op: VStoreStride, VL: vl,
						Base: dstBase + c0*spec.Rows + r0 + r, Stride: spec.Rows,
						Dst: -1, Src1: 8 + r, Src2: -1})
				}
				p.scalar(2)
				c0 += vl
			}
		}
		r := m.finish(core.CornerTurn, 2*spec.Words(), 2*spec.Words())
		r.Notes = append(r.Notes, "permute variant: unit-stride loads, in-register transpose, strided stores")
		return r, nil
	})
}

// RunBeamSteering implements core.Machine: the inner loop is
// hand-vectorized over elements, with the direction/dwell terms folded
// into a scalar ahead of the loop, as the paper describes ("the data is
// fed to the vector unit, which computes output data").
func (m *Machine) RunBeamSteering(spec beamsteer.Spec) (core.Result, error) {
	m.reset()
	calBase := m.alloc(spec.Elements)
	gradBase := m.alloc(spec.Elements)
	outBase := m.alloc(spec.Elements * spec.Directions * spec.Dwells)
	p := m.newProg()
	outAddr := outBase
	elemChunks := chunks(spec.Elements, m.cfg.MVL)
	for dw := 0; dw < spec.Dwells; dw++ {
		for d := 0; d < spec.Directions; d++ {
			// Fold steer[d] + dwellBase[dw] + rounding into a scalar.
			p.scalar(3)
			e0 := 0
			for _, vl := range elemChunks {
				p.load(vl, calBase+e0, 0)
				p.load(vl, gradBase+e0, 1)
				p.iadd(vl, 2, 0, 1)
				p.iadd(vl, 3, 2, -1) // + folded scalar
				p.shift(vl, 4, 3)
				p.store(vl, outAddr+e0, 4)
				p.scalar(2)
				e0 += vl
			}
			outAddr += spec.Elements
		}
	}
	return m.finish(core.BeamSteering,
		spec.Outputs()*spec.OpsPerOutput(), spec.Outputs()*spec.MemPerOutput()), nil
}

// RunCSLC implements core.Machine. Per the paper, VIRAM runs the
// hand-optimized mixed radix-4/radix-2 FFT; the vectorization is across
// sub-bands (vector length = number of simultaneous transforms), with
// the samples held in separate real/imaginary planes so butterflies use
// unit-stride accesses and twiddles are scalar broadcasts.
func (m *Machine) RunCSLC(spec cslc.Spec) (core.Result, error) {
	// The paper's hand-optimized choice for N=128 is the mixed radix-4/2
	// plan; other lengths take the best decomposition available.
	spec.Radix = fft.BestRadix(spec.FFTSize)
	counts, err := spec.TotalCounts()
	if err != nil {
		return core.Result{}, err
	}

	m.reset()
	n := spec.FFTSize
	// Plane buffers (reused across strips, as a real implementation
	// would): input planes, working planes, half planes.
	chRe := m.alloc(spec.Samples)
	chIm := m.alloc(spec.Samples)
	var pl fftPlanes
	pl.workRe = m.alloc(n * m.cfg.MVL)
	pl.workIm = m.alloc(n * m.cfg.MVL)
	pl.evenRe = m.alloc(n / 2 * m.cfg.MVL)
	pl.evenIm = m.alloc(n / 2 * m.cfg.MVL)
	pl.oddRe = m.alloc(n / 2 * m.cfg.MVL)
	pl.oddIm = m.alloc(n / 2 * m.cfg.MVL)
	pl.outRe = m.alloc(n * m.cfg.MVL)
	pl.outIm = m.alloc(n * m.cfg.MVL)

	p := m.newProg()
	strips := chunks(spec.SubBands, m.cfg.MVL)

	// Forward transforms: every channel, every strip of sub-bands. Each
	// extract, FFT stage and weight pass is a segment: the channels and
	// strips reuse one set of planes, so most repeat one another.
	for ch := 0; ch < spec.Channels(); ch++ {
		for _, vl := range strips {
			m.emitExtract(p, spec, vl, chRe, chIm, pl.workRe, pl.workIm)
			m.emitFFT(p, n, vl, pl, false)
		}
	}
	// Weight application: each main channel, each strip.
	for mc := 0; mc < spec.MainChannels; mc++ {
		for _, vl := range strips {
			m.emitWeightApply(p, spec, vl, pl.workRe, pl.workIm)
		}
	}
	// Inverse transforms: each main channel, each strip.
	for mc := 0; mc < spec.MainChannels; mc++ {
		for _, vl := range strips {
			m.emitFFT(p, n, vl, pl, true)
		}
	}
	return m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores), nil
}

// fftPlanes are the plane pairs a strip's transform works in: the
// working planes it reads, the even and odd half planes, and the output
// planes.
type fftPlanes struct {
	workRe, workIm, evenRe, evenIm, oddRe, oddIm, outRe, outIm int
}

// emitExtract emits the sub-band gather: for each sample row, a strided
// load across the strip's bands (stride = hop) into the working plane.
func (m *Machine) emitExtract(p *prog, spec cslc.Spec, vl, chRe, chIm, workRe, workIm int) {
	n, hop := spec.FFTSize, spec.Hop()
	if hop == 0 {
		hop = 1
	}
	m.segment(segID{segExtract, [8]int{n, hop, vl, chRe, chIm, workRe, workIm}}, func() {
		for s := 0; s < n; s++ {
			p.loadStride(vl, chRe+s, hop, 0)
			p.store(vl, workRe+s*vl, 0)
			p.loadStride(vl, chIm+s, hop, 1)
			p.store(vl, workIm+s*vl, 1)
			if s%8 == 0 {
				p.scalar(2)
			}
		}
	})
}

// emitFFT emits one strip's mixed radix-4/2 transform: even/odd
// deinterleave, digit-reversal of each half, three radix-4 stages per
// half, and the final radix-2 combine. When inverse is set a 1/N scaling
// pass is appended. Addresses follow the plane layout (row s of a plane
// holds sample s across the strip's bands). Each stage is a segment.
func (m *Machine) emitFFT(p *prog, n, vl int, pl fftPlanes, inverse bool) {
	if fft.BestRadix(n) == fft.Radix4 {
		// Power-of-four length: a pure radix-4 transform in place over
		// the working planes, then copy-out and optional scaling.
		m.segment(segID{segRadix4, [8]int{n, vl, pl.workRe, pl.workIm}}, func() {
			m.emitRadix4Half(p, n, vl, pl.workRe, pl.workIm)
		})
		m.segment(segID{segCopyOut, [8]int{n, vl, pl.workRe, pl.workIm, pl.outRe, pl.outIm}}, func() {
			for s := 0; s < n; s++ {
				p.load(vl, pl.workRe+s*vl, 0)
				p.store(vl, pl.outRe+s*vl, 0)
				p.load(vl, pl.workIm+s*vl, 1)
				p.store(vl, pl.outIm+s*vl, 1)
				if s%8 == 0 {
					p.scalar(2)
				}
			}
		})
		if inverse {
			m.emitScale(p, n, vl, pl.outRe, pl.outIm)
		}
		return
	}
	half := n / 2
	// Deinterleave even/odd samples (the radix-2 DIT split).
	m.segment(segID{segDeinterleave, [8]int{half, vl, pl.workRe, pl.workIm, pl.evenRe, pl.evenIm, pl.oddRe, pl.oddIm}}, func() {
		for s := 0; s < half; s++ {
			p.load(vl, pl.workRe+2*s*vl, 0)
			p.store(vl, pl.evenRe+s*vl, 0)
			p.load(vl, pl.workIm+2*s*vl, 1)
			p.store(vl, pl.evenIm+s*vl, 1)
			p.load(vl, pl.workRe+(2*s+1)*vl, 2)
			p.store(vl, pl.oddRe+s*vl, 2)
			p.load(vl, pl.workIm+(2*s+1)*vl, 3)
			p.store(vl, pl.oddIm+s*vl, 3)
			if s%8 == 0 {
				p.scalar(2)
			}
		}
	})
	for _, h := range [2][2]int{{pl.evenRe, pl.evenIm}, {pl.oddRe, pl.oddIm}} {
		m.segment(segID{segRadix4, [8]int{half, vl, h[0], h[1]}}, func() {
			m.emitRadix4Half(p, half, vl, h[0], h[1])
		})
	}
	// Final radix-2 combine into the output planes, software-pipelined
	// one butterfly deep: 4 loads, 11 computes and 4 stores each.
	m.segment(segID{segCombine, [8]int{half, vl, pl.evenRe, pl.evenIm, pl.oddRe, pl.oddIm, pl.outRe, pl.outIm}}, func() {
		bf := &m.pipe
		for k := 0; k < half; k++ {
			p.load(vl, pl.evenRe+k*vl, 0)
			p.load(vl, pl.evenIm+k*vl, 1)
			p.load(vl, pl.oddRe+k*vl, 2)
			p.load(vl, pl.oddIm+k*vl, 3)
			c := &bf.computes
			// t = odd * w^k (scalar twiddle).
			m.emitCMulScalar(c, vl, 2, 3, 4, 5, 30, 31)
			c.fadd(vl, 6, 0, 4) // out[k]
			c.fadd(vl, 7, 1, 5)
			c.fadd(vl, 8, 0, 4) // out[k+half] (subtract: same slot cost)
			c.fadd(vl, 9, 1, 5)
			c.scalar(2)
			st := &bf.stores
			st.store(vl, pl.outRe+k*vl, 6)
			st.store(vl, pl.outIm+k*vl, 7)
			st.store(vl, pl.outRe+(k+half)*vl, 8)
			st.store(vl, pl.outIm+(k+half)*vl, 9)
			bf.next(p)
		}
		bf.drain(p)
	})
	if inverse {
		m.emitScale(p, n, vl, pl.outRe, pl.outIm)
	}
}

// emitScale emits an inverse transform's 1/N scaling pass over the
// output planes.
func (m *Machine) emitScale(p *prog, n, vl, outRe, outIm int) {
	m.segment(segID{segScale, [8]int{n, vl, outRe, outIm}}, func() {
		for s := 0; s < n; s++ {
			p.load(vl, outRe+s*vl, 0)
			p.fmul(vl, 1, 0)
			p.store(vl, outRe+s*vl, 1)
			p.load(vl, outIm+s*vl, 2)
			p.fmul(vl, 3, 2)
			p.store(vl, outIm+s*vl, 3)
			if s%8 == 0 {
				p.scalar(2)
			}
		}
	})
}

// emitRadix4Half emits the digit-reversal and the radix-4 stages of one
// half-length transform over a plane pair.
func (m *Machine) emitRadix4Half(p *prog, n, vl, re, im int) {
	// Digit-reversal reorder: one load+store per displaced sample row.
	digits := 0
	for t := n; t > 1; t >>= 2 {
		digits++
	}
	rev := func(i int) int {
		r := 0
		for d := 0; d < digits; d++ {
			r = (r << 2) | (i & 3)
			i >>= 2
		}
		return r
	}
	for s := 0; s < n; s++ {
		if j := rev(s); j > s {
			p.load(vl, re+s*vl, 0)
			p.load(vl, re+j*vl, 1)
			p.store(vl, re+j*vl, 0)
			p.store(vl, re+s*vl, 1)
			p.load(vl, im+s*vl, 2)
			p.load(vl, im+j*vl, 3)
			p.store(vl, im+j*vl, 2)
			p.store(vl, im+s*vl, 3)
			p.scalar(2)
		}
	}
	// Radix-4 stages, software-pipelined one butterfly deep per stage.
	for size := 4; size <= n; size <<= 2 {
		quarter := size / 4
		for start := 0; start < n; start += size {
			for k := 0; k < quarter; k++ {
				m.radix4Bfly(p, vl, re, im, start+k, quarter)
			}
		}
		m.pipe.drain(p)
	}
}

// pipeline software-pipelines butterflies one deep, the shape of a
// hand-scheduled vector loop: a butterfly's loads issue ahead of the
// previous butterfly's stores, and those stores issue interleaved with
// its computes, so the memory unit and the arithmetic units both stay
// fed through the finite dispatch queue. A butterfly issues its loads
// directly and collects its computes and stores here; the pipeline
// keeps nothing else but the previous butterfly's stores.
type pipeline struct {
	computes, stores, pending prog
}

// next issues the butterfly just built: its computes interleaved with
// the previous butterfly's stores. Its own stores become pending.
func (pl *pipeline) next(p *prog) {
	p.interleave(pl.computes.insts, pl.pending.insts)
	pl.computes.insts = pl.computes.insts[:0]
	pl.pending.insts, pl.stores.insts = pl.stores.insts, pl.pending.insts[:0]
}

// drain issues the last butterfly's stores.
func (pl *pipeline) drain(p *prog) {
	for _, in := range pl.pending.insts {
		p.emit(in)
	}
	pl.pending.insts = pl.pending.insts[:0]
}

// interleave emits the two instruction sequences merged proportionally,
// preserving each sequence's internal order.
func (p *prog) interleave(a, b []Inst) {
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		// Emit from whichever sequence is proportionally behind.
		if bi < len(b) && bi*len(a) <= ai*len(b) {
			p.emit(b[bi])
			bi++
		} else {
			p.emit(a[ai])
			ai++
		}
	}
}

// radix4Bfly emits one radix-4 butterfly over plane rows i, i+q, i+2q,
// i+3q (scalar twiddles, complex arithmetic on vector registers) into
// the pipeline: 8 loads, 35 computes (3 complex multiplies x 6, 16 adds,
// 1 scalar) and 8 stores.
func (m *Machine) radix4Bfly(p *prog, vl, re, im, i, q int) {
	a := func(plane, idx int) int { return plane + idx*vl }
	// Loads: four complex operands.
	p.load(vl, a(re, i), 0)
	p.load(vl, a(im, i), 1)
	p.load(vl, a(re, i+q), 2)
	p.load(vl, a(im, i+q), 3)
	p.load(vl, a(re, i+2*q), 4)
	p.load(vl, a(im, i+2*q), 5)
	p.load(vl, a(re, i+3*q), 6)
	p.load(vl, a(im, i+3*q), 7)
	c := &m.pipe.computes
	// Three scalar-twiddle complex multiplies (b, c, d).
	for j := 0; j < 3; j++ {
		sr, si := 2+2*j, 3+2*j
		dr, di := 8+2*j, 9+2*j
		m.emitCMulScalar(c, vl, sr, si, dr, di, 30, 31)
	}
	// Complex add/sub tree: apc, amc, bpd, bmd then the four outputs.
	c.fadd(vl, 14, 0, 10) // apc re (a + c')
	c.fadd(vl, 15, 1, 11) // apc im
	c.fadd(vl, 16, 0, 10) // amc re
	c.fadd(vl, 17, 1, 11) // amc im
	c.fadd(vl, 18, 8, 12) // bpd re
	c.fadd(vl, 19, 9, 13) // bpd im
	c.fadd(vl, 20, 8, 12) // bmd re
	c.fadd(vl, 21, 9, 13) // bmd im
	c.fadd(vl, 22, 14, 18)
	c.fadd(vl, 23, 15, 19)
	c.fadd(vl, 24, 16, 21)
	c.fadd(vl, 25, 17, 20)
	c.fadd(vl, 26, 14, 18)
	c.fadd(vl, 27, 15, 19)
	c.fadd(vl, 28, 16, 21)
	c.fadd(vl, 29, 17, 20)
	c.scalar(2)
	// Stores: four complex results.
	st := &m.pipe.stores
	st.store(vl, a(re, i), 22)
	st.store(vl, a(im, i), 23)
	st.store(vl, a(re, i+q), 24)
	st.store(vl, a(im, i+q), 25)
	st.store(vl, a(re, i+2*q), 26)
	st.store(vl, a(im, i+2*q), 27)
	st.store(vl, a(re, i+3*q), 28)
	st.store(vl, a(im, i+3*q), 29)
	m.pipe.next(p)
}

// emitCMulScalar emits a scalar-twiddle complex multiply: six FP slots
// (four multiplies, two adds), the VIRAM sequence without fused
// multiply-add. t1 and t2 are scratch registers.
func (m *Machine) emitCMulScalar(p *prog, vl, srcRe, srcIm, dstRe, dstIm, t1, t2 int) {
	p.fmul(vl, t1, srcRe)
	p.fmul(vl, t2, srcIm)
	p.fadd(vl, dstRe, t1, t2)
	p.fmul(vl, t1, srcRe)
	p.fmul(vl, t2, srcIm)
	p.fadd(vl, dstIm, t1, t2)
}

// emitWeightApply emits the per-bin weight stage for one main-channel
// strip: out[bin] = main[bin] - sum_a w[a][bin]*aux_a[bin], with the
// weights scalar per bin and the band dimension vectorized.
func (m *Machine) emitWeightApply(p *prog, spec cslc.Spec, vl, workRe, workIm int) {
	n, aux := spec.FFTSize, spec.AuxChannels
	m.segment(segID{segWeight, [8]int{n, aux, vl, workRe, workIm}}, func() {
		for k := 0; k < n; k++ {
			p.load(vl, workRe+k*vl, 0) // main re
			p.load(vl, workIm+k*vl, 1) // main im
			for a := 0; a < aux; a++ {
				p.load(vl, workRe+(n+k)*vl, 2)
				p.load(vl, workIm+(n+k)*vl, 3)
				// acc -= w * aux: a scalar-weight complex multiply and a
				// complex subtract (subtracts cost add slots).
				m.emitCMulScalar(p, vl, 2, 3, 4, 5, 30, 31)
				p.fadd(vl, 0, 0, 4)
				p.fadd(vl, 1, 1, 5)
			}
			p.store(vl, workRe+k*vl, 0)
			p.store(vl, workIm+k*vl, 1)
			p.scalar(2)
		}
	})
}
