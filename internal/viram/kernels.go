package viram

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/testsig"
)

// prog is a small builder for vector instruction streams. Register
// operands default to "none" so a forgotten field cannot silently alias
// vector register zero.
type prog struct {
	insts []Inst
}

func (p *prog) emit(in Inst) { p.insts = append(p.insts, in) }

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

// newProg returns the machine's reusable program builder, emptied. The
// instruction backing is handed back by finish so its capacity carries
// over to the next kernel run.
func (m *Machine) newProg() *prog {
	return &prog{insts: m.progBuf[:0]}
}

// finish executes the kernel's program, returns its backing array to
// the machine for reuse, and assembles the core.Result.
func (m *Machine) finish(p *prog, kernel core.KernelID, ops, words uint64) core.Result {
	res := m.exec(p.insts)
	m.progBuf = p.insts
	return core.Result{
		Machine:   m.Name(),
		Kernel:    kernel,
		Cycles:    res.Cycles,
		Breakdown: res.Breakdown,
		Stats:     res.Stats,
		Ops:       ops,
		Words:     words,
		Verified:  true,
	}
}

// instArena hands out fixed-capacity []Inst chunks carved from one
// backing array, so per-butterfly bundle construction does not allocate.
// When a request outgrows the backing a larger one is allocated; chunks
// already handed out keep referencing the old array, which stays live
// (and correct) until they are consumed.
type instArena struct{ buf []Inst }

// take returns an empty slice with capacity exactly n that appends in
// place within the arena backing.
func (a *instArena) take(n int) []Inst {
	if len(a.buf)+n > cap(a.buf) {
		grow := 2 * cap(a.buf)
		if grow < n {
			grow = n
		}
		if grow < 1024 {
			grow = 1024
		}
		a.buf = make([]Inst, 0, grow)
	}
	s := a.buf[len(a.buf) : len(a.buf) : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

// reset recycles the backing. Only call once every chunk handed out
// since the last reset has been consumed (copied into a program).
func (a *instArena) reset() { a.buf = a.buf[:0] }

// RunCornerTurn implements core.Machine. The program follows the paper's
// VIRAM algorithm: strided loads of matrix columns (with row padding to
// spread DRAM banks) staged through vector registers, sequential stores
// to the destination.
func (m *Machine) RunCornerTurn(spec cornerturn.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	// Functional half: perform and verify the real transpose.
	if err := cornerturn.VerifySynthetic(spec.Rows, spec.Cols, func(dst, src *testsig.Matrix) error {
		return cornerturn.TransposeBlocked(dst, src, spec.BlockSize)
	}); err != nil {
		return core.Result{}, fmt.Errorf("viram: corner turn: %w", err)
	}

	// Timing half: emit and execute the vector program.
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
	return m.finish(p, core.CornerTurn, 2*spec.Words(), 2*spec.Words()), nil
}

// RunCornerTurnPermute is the alternative corner-turn formulation the
// paper's implementation rejected: unit-stride loads at the full
// 8-word-per-cycle datapath, with the transpose done by in-register
// permutes (as AltiVec does) instead of strided address generation. The
// permutes execute on ALU0 only, so what the memory system gains the
// (single) permute-capable unit gives back — the quantitative case for
// the strided-load-plus-padding design the paper describes.
func (m *Machine) RunCornerTurnPermute(spec cornerturn.Spec) (core.Result, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, err
	}
	if err := cornerturn.VerifySynthetic(spec.Rows, spec.Cols, func(dst, src *testsig.Matrix) error {
		return cornerturn.TransposeBlocked(dst, src, spec.BlockSize)
	}); err != nil {
		return core.Result{}, fmt.Errorf("viram: corner turn: %w", err)
	}

	m.reset()
	srcBase := m.alloc(spec.Rows * spec.Cols)
	dstBase := m.alloc(spec.Rows * spec.Cols)
	p := m.newProg()
	// Process 8x64 panels: eight unit-stride row loads fill v0..v7, a
	// permute network reassembles 64 8-element column groups, and eight
	// stores emit them. Each element passes through one permute slot.
	const panelRows = 8
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
	r := m.finish(p, core.CornerTurn, 2*spec.Words(), 2*spec.Words())
	r.Notes = append(r.Notes, "permute variant: unit-stride loads, in-register transpose, strided stores")
	return r, nil
}

// RunBeamSteering implements core.Machine: the inner loop is
// hand-vectorized over elements, with the direction/dwell terms folded
// into a scalar ahead of the loop, as the paper describes ("the data is
// fed to the vector unit, which computes output data").
func (m *Machine) RunBeamSteering(spec beamsteer.Spec) (core.Result, error) {
	if err := beamsteer.Verify(spec); err != nil {
		return core.Result{}, err
	}

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
	return m.finish(p, core.BeamSteering,
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
	if err := cslc.Verify(spec); err != nil {
		return core.Result{}, err
	}

	m.reset()
	p := m.newProg()
	n := spec.FFTSize
	// Plane buffers (reused across strips, as a real implementation
	// would): input planes, working planes, half planes.
	chRe := m.alloc(spec.Samples)
	chIm := m.alloc(spec.Samples)
	workRe := m.alloc(n * m.cfg.MVL)
	workIm := m.alloc(n * m.cfg.MVL)
	evenRe := m.alloc(n / 2 * m.cfg.MVL)
	evenIm := m.alloc(n / 2 * m.cfg.MVL)
	oddRe := m.alloc(n / 2 * m.cfg.MVL)
	oddIm := m.alloc(n / 2 * m.cfg.MVL)
	outRe := m.alloc(n * m.cfg.MVL)
	outIm := m.alloc(n * m.cfg.MVL)

	strips := chunks(spec.SubBands, m.cfg.MVL)

	// Forward transforms: every channel, every strip of sub-bands.
	for ch := 0; ch < spec.Channels(); ch++ {
		for _, vl := range strips {
			m.emitExtract(p, spec, vl, chRe, chIm, workRe, workIm)
			m.emitFFT(p, n, vl, workRe, workIm, evenRe, evenIm, oddRe, oddIm, outRe, outIm, false)
		}
	}
	// Weight application: each main channel, each strip.
	for mc := 0; mc < spec.MainChannels; mc++ {
		for _, vl := range strips {
			m.emitWeightApply(p, spec, vl, workRe, workIm)
		}
	}
	// Inverse transforms: each main channel, each strip.
	for mc := 0; mc < spec.MainChannels; mc++ {
		for _, vl := range strips {
			m.emitFFT(p, n, vl, workRe, workIm, evenRe, evenIm, oddRe, oddIm, outRe, outIm, true)
		}
	}
	counts, err := spec.TotalCounts()
	if err != nil {
		return core.Result{}, err
	}
	return m.finish(p, core.CSLC, counts.Flops(), counts.Loads+counts.Stores), nil
}

// emitExtract emits the sub-band gather: for each sample row, a strided
// load across the strip's bands (stride = hop) into the working plane.
func (m *Machine) emitExtract(p *prog, spec cslc.Spec, vl, chRe, chIm, workRe, workIm int) {
	hop := spec.Hop()
	if hop == 0 {
		hop = 1
	}
	for s := 0; s < spec.FFTSize; s++ {
		p.loadStride(vl, chRe+s, hop, 0)
		p.store(vl, workRe+s*vl, 0)
		p.loadStride(vl, chIm+s, hop, 1)
		p.store(vl, workIm+s*vl, 1)
		if s%8 == 0 {
			p.scalar(2)
		}
	}
}

// emitFFT emits one strip's mixed radix-4/2 transform: even/odd
// deinterleave, digit-reversal of each half, three radix-4 stages per
// half, and the final radix-2 combine. When inverse is set a 1/N scaling
// pass is appended. Addresses follow the plane layout (row s of a plane
// holds sample s across the strip's bands).
func (m *Machine) emitFFT(p *prog, n, vl, workRe, workIm, evenRe, evenIm, oddRe, oddIm, outRe, outIm int, inverse bool) {
	if fft.BestRadix(n) == fft.Radix4 {
		// Power-of-four length: a pure radix-4 transform in place over
		// the working planes, then copy-out and optional scaling.
		m.emitRadix4Half(p, n, vl, workRe, workIm)
		for s := 0; s < n; s++ {
			p.load(vl, workRe+s*vl, 0)
			p.store(vl, outRe+s*vl, 0)
			p.load(vl, workIm+s*vl, 1)
			p.store(vl, outIm+s*vl, 1)
			if s%8 == 0 {
				p.scalar(2)
			}
		}
		if inverse {
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
		}
		return
	}
	half := n / 2
	// Deinterleave even/odd samples (the radix-2 DIT split).
	for s := 0; s < half; s++ {
		p.load(vl, workRe+2*s*vl, 0)
		p.store(vl, evenRe+s*vl, 0)
		p.load(vl, workIm+2*s*vl, 1)
		p.store(vl, evenIm+s*vl, 1)
		p.load(vl, workRe+(2*s+1)*vl, 2)
		p.store(vl, oddRe+s*vl, 2)
		p.load(vl, workIm+(2*s+1)*vl, 3)
		p.store(vl, oddIm+s*vl, 3)
		if s%8 == 0 {
			p.scalar(2)
		}
	}
	for _, base := range [][2]int{{evenRe, evenIm}, {oddRe, oddIm}} {
		m.emitRadix4Half(p, half, vl, base[0], base[1])
	}
	// Final radix-2 combine into the output planes, software-pipelined
	// one butterfly deep so the next loads overlap the previous stores.
	// Bundle instruction slices come from the machine arena (sizes are
	// fixed per butterfly: 4 loads, 11 computes, 4 stores).
	bundles := m.bundles[:0]
	for k := 0; k < half; k++ {
		b := bundle{}
		bp := prog{insts: m.arena.take(4)}
		bp.load(vl, evenRe+k*vl, 0)
		bp.load(vl, evenIm+k*vl, 1)
		bp.load(vl, oddRe+k*vl, 2)
		bp.load(vl, oddIm+k*vl, 3)
		b.loads = bp.insts
		bp = prog{insts: m.arena.take(11)}
		// t = odd * w^k (scalar twiddle).
		m.emitCMulScalar(&bp, vl, 2, 3, 4, 5, 30, 31)
		bp.fadd(vl, 6, 0, 4) // out[k]
		bp.fadd(vl, 7, 1, 5)
		bp.fadd(vl, 8, 0, 4) // out[k+half] (subtract: same slot cost)
		bp.fadd(vl, 9, 1, 5)
		bp.scalar(2)
		b.computes = bp.insts
		bp = prog{insts: m.arena.take(4)}
		bp.store(vl, outRe+k*vl, 6)
		bp.store(vl, outIm+k*vl, 7)
		bp.store(vl, outRe+(k+half)*vl, 8)
		bp.store(vl, outIm+(k+half)*vl, 9)
		b.stores = bp.insts
		bundles = append(bundles, b)
	}
	pipelineBundles(p, bundles)
	m.bundles = bundles
	m.arena.reset()
	if inverse {
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
	}
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
	// The bundle list and its instruction slices are machine scratch,
	// recycled per stage once pipelineBundles has copied them out.
	for size := 4; size <= n; size <<= 2 {
		quarter := size / 4
		bundles := m.bundles[:0]
		for start := 0; start < n; start += size {
			for k := 0; k < quarter; k++ {
				bundles = append(bundles, m.radix4BflyBundle(vl, re, im, start+k, quarter))
			}
		}
		pipelineBundles(p, bundles)
		m.bundles = bundles
		m.arena.reset()
	}
}

// bundle groups one butterfly's instructions by phase so pipelineBundles
// can overlap the memory unit with the arithmetic units across
// butterflies, the way a hand-scheduled vector loop does.
type bundle struct {
	loads, computes, stores []Inst
}

// pipelineBundles emits bundles with the stores deferred one butterfly:
// loads(k+1) issue before stores(k), and the deferred stores are
// interleaved into the compute sequence so both units stay fed through
// the finite dispatch queue — the shape a hand-scheduled vector loop has.
func pipelineBundles(p *prog, bundles []bundle) {
	var pending []Inst
	for _, b := range bundles {
		p.insts = append(p.insts, b.loads...)
		p.insts = appendInterleaved(p.insts, b.computes, pending)
		pending = b.stores
	}
	p.insts = append(p.insts, pending...)
}

// appendInterleaved appends the two instruction sequences to dst merged
// proportionally, preserving each sequence's internal order. Writing
// straight into the destination program avoids a temporary per merge.
func appendInterleaved(dst []Inst, a, b []Inst) []Inst {
	if len(b) == 0 {
		return append(dst, a...)
	}
	ai, bi := 0, 0
	for ai < len(a) || bi < len(b) {
		// Emit from whichever sequence is proportionally behind.
		if bi*len(a) <= ai*len(b) && bi < len(b) {
			dst = append(dst, b[bi])
			bi++
		} else {
			dst = append(dst, a[ai])
			ai++
		}
	}
	return dst
}

// radix4BflyBundle builds one radix-4 butterfly over plane rows i, i+q,
// i+2q, i+3q (scalar twiddles, complex arithmetic on vector registers).
func (m *Machine) radix4BflyBundle(vl, re, im, i, q int) bundle {
	a := func(plane, idx int) int { return plane + idx*vl }
	var b bundle
	// Arena-backed phase slices: 8 loads, 35 computes (3 complex
	// multiplies x 6, 16 adds, 1 scalar), 8 stores per butterfly.
	bp := prog{insts: m.arena.take(8)}
	// Loads: four complex operands.
	bp.load(vl, a(re, i), 0)
	bp.load(vl, a(im, i), 1)
	bp.load(vl, a(re, i+q), 2)
	bp.load(vl, a(im, i+q), 3)
	bp.load(vl, a(re, i+2*q), 4)
	bp.load(vl, a(im, i+2*q), 5)
	bp.load(vl, a(re, i+3*q), 6)
	bp.load(vl, a(im, i+3*q), 7)
	b.loads = bp.insts
	bp = prog{insts: m.arena.take(35)}
	// Three scalar-twiddle complex multiplies (b, c, d).
	for j := 0; j < 3; j++ {
		sr, si := 2+2*j, 3+2*j
		dr, di := 8+2*j, 9+2*j
		m.emitCMulScalar(&bp, vl, sr, si, dr, di, 30, 31)
	}
	// Complex add/sub tree: apc, amc, bpd, bmd then the four outputs.
	bp.fadd(vl, 14, 0, 10) // apc re (a + c')
	bp.fadd(vl, 15, 1, 11) // apc im
	bp.fadd(vl, 16, 0, 10) // amc re
	bp.fadd(vl, 17, 1, 11) // amc im
	bp.fadd(vl, 18, 8, 12) // bpd re
	bp.fadd(vl, 19, 9, 13) // bpd im
	bp.fadd(vl, 20, 8, 12) // bmd re
	bp.fadd(vl, 21, 9, 13) // bmd im
	bp.fadd(vl, 22, 14, 18)
	bp.fadd(vl, 23, 15, 19)
	bp.fadd(vl, 24, 16, 21)
	bp.fadd(vl, 25, 17, 20)
	bp.fadd(vl, 26, 14, 18)
	bp.fadd(vl, 27, 15, 19)
	bp.fadd(vl, 28, 16, 21)
	bp.fadd(vl, 29, 17, 20)
	bp.scalar(2)
	b.computes = bp.insts
	bp = prog{insts: m.arena.take(8)}
	// Stores: four complex results.
	bp.store(vl, a(re, i), 22)
	bp.store(vl, a(im, i), 23)
	bp.store(vl, a(re, i+q), 24)
	bp.store(vl, a(im, i+q), 25)
	bp.store(vl, a(re, i+2*q), 26)
	bp.store(vl, a(im, i+2*q), 27)
	bp.store(vl, a(re, i+3*q), 28)
	bp.store(vl, a(im, i+3*q), 29)
	b.stores = bp.insts
	return b
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
	for k := 0; k < spec.FFTSize; k++ {
		p.load(vl, workRe+k*vl, 0) // main re
		p.load(vl, workIm+k*vl, 1) // main im
		for a := 0; a < spec.AuxChannels; a++ {
			p.load(vl, workRe+(spec.FFTSize+k)*vl, 2)
			p.load(vl, workIm+(spec.FFTSize+k)*vl, 3)
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
}
