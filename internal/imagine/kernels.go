package imagine

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// stripHeight is the corner-turn strip height RunCornerTurn times on
// cols-word rows: the paper's eight (the strip's input and output, 32 KB
// each, double-buffered exactly in the 128 KB SRF, giving its "128
// eight-word blocks"), halved until the strip fits double-buffered.
func (m *Machine) stripHeight(cols int) int {
	rows := 8
	for rows > 1 && 2*2*rows*cols*4 > m.cfg.SRF.CapacityBytes {
		rows /= 2
	}
	return rows
}

// Formulation implements core.Machine: corner-turn strips of the height
// RunCornerTurn times, and CSLC at fft.BestRadix.
func (m *Machine) Formulation(w core.Workload) core.Formulation {
	return core.Formulation{CornerTurn: cornerturn.Transposer{Strip: m.stripHeight(w.CornerTurn.Cols)}, CSLC: fft.BestRadix(w.CSLC.FFTSize)}
}

// RunCornerTurn implements core.Machine. The formulation is the paper's:
// the matrix is divided into multi-row strips read as four sequential
// input streams; the clusters route elements into output order; the
// output leaves as one stream of eight-word blocks with non-unit stride.
func (m *Machine) RunCornerTurn(spec cornerturn.Spec) (core.Result, error) {
	m.reset()
	rowsPerStrip := m.stripHeight(spec.Cols)
	if 2*2*rowsPerStrip*spec.Cols*4 > m.cfg.SRF.CapacityBytes {
		return core.Result{}, fmt.Errorf("imagine: a single %d-word row pair exceeds the SRF", spec.Cols)
	}
	route := KernelDesc{
		Name:       "route",
		Iterations: rowsPerStrip * spec.Cols / m.cfg.Clusters,
		// Each element passes through a cluster: receive and forward via
		// the communication port, with one address add.
		AddsPerIter: 1, MulsPerIter: 0, CommPerIter: 2,
	}
	// The paper's implementation could not fully software-pipeline the
	// strip loop ("a limitation induced by the stream descriptor
	// registers prevented full software pipelining"): each strip's
	// output stream is issued in program order before the next strip's
	// loads, leaving ~13% of cycles as unoverlapped cluster work. The
	// FullPipelining flag models the fixed implementation as an ablation.
	var pendingStore uint64
	pendingWords := 0
	for r0 := 0; r0 < spec.Rows; r0 += rowsPerStrip {
		rows := rowsPerStrip
		if r0+rows > spec.Rows {
			rows = spec.Rows - r0
		}
		words := rows * spec.Cols
		// Four simultaneous input streams covering the strip.
		var loadDone uint64
		per := (words + 3) / 4
		for s := 0; s < 4 && s*per < words; s++ {
			n := per
			if s*per+n > words {
				n = words - s*per
			}
			if d := m.memStream(n, 1, false, 0); d > loadDone {
				loadDone = d
			}
		}
		if m.cfg.FullPipelining && pendingWords > 0 {
			// Previous strip's output stream: eight-word blocks, written
			// block-strided.
			m.memStream(pendingWords, spec.Rows, true, pendingStore)
		}
		ready := m.srfStream(words, loadDone)
		k := route
		k.Iterations = words / m.cfg.Clusters
		kDone := m.runKernel(k, ready)
		out := m.srfStream(words, kDone)
		if m.cfg.FullPipelining {
			pendingStore = out
			pendingWords = words
		} else {
			m.memStream(words, spec.Rows, true, out)
		}
	}
	if m.cfg.FullPipelining && pendingWords > 0 {
		m.memStream(pendingWords, spec.Rows, true, pendingStore)
	}
	return m.finish(core.CornerTurn, 2*spec.Words(), 2*spec.Words()), nil
}

// fftKernel returns the parallel-FFT kernel descriptor: one transform
// spread across the eight clusters, butterflies exchanged over the
// inter-cluster network (the implementation the paper measured; see the
// IndependentFFTs ablation for the alternative it describes).
func (m *Machine) fftKernel(spec cslc.Spec, inverse bool) (KernelDesc, error) {
	plan, err := fft.NewPlan(spec.FFTSize, spec.Radix, inverse)
	if err != nil {
		return KernelDesc{}, err
	}
	c := plan.Counts()
	// Butterfly count implied by the plan: distribute over clusters.
	var bflies int
	switch spec.Radix {
	case fft.Radix2:
		bflies = spec.FFTSize / 2 * log2(spec.FFTSize)
	case fft.MixedRadix42:
		bflies = 2*(spec.FFTSize/8)*log4(spec.FFTSize/2) + spec.FFTSize/2
	case fft.Radix4:
		bflies = spec.FFTSize / 4 * log4(spec.FFTSize)
	default:
		return KernelDesc{}, fmt.Errorf("imagine: unsupported radix %v", spec.Radix)
	}
	iters := (bflies + m.cfg.Clusters - 1) / m.cfg.Clusters
	return KernelDesc{
		Name:        plan.Radix().String(),
		Iterations:  iters,
		AddsPerIter: int((c.Adds + uint64(bflies) - 1) / uint64(bflies)),
		MulsPerIter: int((c.Muls + uint64(bflies) - 1) / uint64(bflies)),
		// A butterfly's operands straddle clusters: four complex words
		// cross the inter-cluster switch per butterfly.
		CommPerIter: 8,
	}, nil
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func log4(n int) int {
	l := 0
	for n > 1 {
		n >>= 2
		l++
	}
	return l
}

// RunCSLC implements core.Machine: per sub-band, the four channel FFTs,
// the per-main-channel weight application, the inverse FFTs, and the
// output streams, all software-pipelined across bands through the
// descriptor-limited stream units.
func (m *Machine) RunCSLC(spec cslc.Spec) (core.Result, error) {
	spec.Radix = fft.BestRadix(spec.FFTSize) // mixed radix-4/2 at the paper's N=128
	m.reset()
	bandWords := 2 * spec.FFTSize // complex samples
	fwd, err := m.fftKernel(spec, false)
	if err != nil {
		return core.Result{}, err
	}
	inv, err := m.fftKernel(spec, true)
	if err != nil {
		return core.Result{}, err
	}
	weight := KernelDesc{
		Name:       "weight-apply",
		Iterations: spec.FFTSize / m.cfg.Clusters,
		// Per bin: one complex multiply-subtract per aux channel.
		AddsPerIter: 4 * spec.AuxChannels,
		MulsPerIter: 4 * spec.AuxChannels,
	}
	// Output stores are deferred one band so the next band's loads are
	// never blocked behind stores still waiting on the cluster array.
	var pendingStores []uint64
	for band := 0; band < spec.SubBands; band++ {
		var fftDone []uint64
		for ch := 0; ch < spec.Channels(); ch++ {
			ld := m.memStream(bandWords, 1, false, 0)
			ready := m.srfStream(bandWords, ld)
			fftDone = append(fftDone, m.runKernel(fwd, ready))
		}
		for _, ps := range pendingStores {
			m.memStream(bandWords, 1, true, ps)
		}
		pendingStores = pendingStores[:0]
		allFFT := maxAll(fftDone)
		for mc := 0; mc < spec.MainChannels; mc++ {
			wDone := m.runKernel(weight, allFFT)
			iDone := m.runKernel(inv, wDone)
			pendingStores = append(pendingStores, m.srfStream(bandWords, iDone))
		}
	}
	for _, ps := range pendingStores {
		m.memStream(bandWords, 1, true, ps)
	}
	counts, err := spec.TotalCounts()
	if err != nil {
		return core.Result{}, err
	}
	return m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores), nil
}

// RunCSLCIndependentFFTs is the alternative implementation the paper
// describes but did not complete: "execute independent FFTs in parallel
// to eliminate inter-cluster communication overhead". Each cluster runs
// a whole transform, so kernel invocations cover eight transforms (two
// sub-bands' forward FFTs) with no communication slots, at the cost of
// idle clusters when fewer than eight transforms remain.
func (m *Machine) RunCSLCIndependentFFTs(spec cslc.Spec) (core.Result, error) {
	spec.Radix = fft.MixedRadix42
	return core.Checked(core.Prove(core.CSLC, core.Workload{CSLC: spec}, core.Formulation{CSLC: spec.Radix}), func() (core.Result, error) {
		m.reset()
		bandWords := 2 * spec.FFTSize
		par, err := m.fftKernel(spec, false)
		if err != nil {
			return core.Result{}, err
		}
		// Whole-FFT-per-cluster: iterations equal the full butterfly count,
		// communication disappears.
		indep := func(k KernelDesc) KernelDesc {
			k.Iterations *= m.cfg.Clusters
			k.CommPerIter = 0
			return k
		}
		fwd := indep(par)
		invPar, err := m.fftKernel(spec, true)
		if err != nil {
			return core.Result{}, err
		}
		inv := indep(invPar)
		weight := KernelDesc{
			Name:        "weight-apply",
			Iterations:  spec.FFTSize / m.cfg.Clusters,
			AddsPerIter: 4 * spec.AuxChannels,
			MulsPerIter: 4 * spec.AuxChannels,
		}
		var pendingStores []uint64
		for band := 0; band < spec.SubBands; band += 2 {
			bands := 2
			if band+1 >= spec.SubBands {
				bands = 1
			}
			// Load both bands' channels, then one invocation runs all 4*bands
			// forward transforms (one per cluster).
			var loads uint64
			for ch := 0; ch < spec.Channels()*bands; ch++ {
				if d := m.memStream(bandWords, 1, false, 0); d > loads {
					loads = d
				}
			}
			for _, ps := range pendingStores {
				m.memStream(bandWords, 1, true, ps)
			}
			pendingStores = pendingStores[:0]
			ready := m.srfStream(bandWords*spec.Channels()*bands, loads)
			fftDone := m.runKernel(fwd, ready)
			for mc := 0; mc < spec.MainChannels*bands; mc++ {
				fftDone = m.runKernel(weight, fftDone)
			}
			iDone := m.runKernel(inv, fftDone)
			for mc := 0; mc < spec.MainChannels*bands; mc++ {
				pendingStores = append(pendingStores, m.srfStream(bandWords, iDone))
			}
		}
		for _, ps := range pendingStores {
			m.memStream(bandWords, 1, true, ps)
		}
		counts, err := spec.TotalCounts()
		if err != nil {
			return core.Result{}, err
		}
		r := m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores)
		r.Notes = append(r.Notes, "independent-FFTs variant (no inter-cluster communication)")
		return r, nil
	})
}

// RunBeamSteering implements core.Machine: per dwell and direction, the
// calibration tables stream from memory into the SRF, the clusters
// compute the phases, and the results stream back. The table streams
// re-read memory every invocation, which is why the paper finds the
// kernel memory-bound ("the load and store operations take 89% of the
// simulation time") and estimates a 2x gain if tables lived in the SRF —
// see the SRFTables ablation option.
func (m *Machine) RunBeamSteering(spec beamsteer.Spec) (core.Result, error) {
	return m.runBeamSteering(spec, false)
}

// RunBeamSteeringSRFTables is the paper's thought experiment: calibration
// tables resident in the SRF after a single initial load.
func (m *Machine) RunBeamSteeringSRFTables(spec beamsteer.Spec) (core.Result, error) {
	return core.Checked(core.Prove(core.BeamSteering, core.Workload{Beam: spec}, core.Formulation{}), func() (core.Result, error) {
		return m.runBeamSteering(spec, true)
	})
}

// RunBeamSteeringPipelined models the paper's Section 4.4 scenario: the
// kernel embedded in a signal-processing pipeline, streaming its inputs
// from the preceding kernel (a poly-phase filter bank) and its outputs
// to the following one (per-beam equalization) entirely through the SRF.
// "In such a pipeline the performance of beam steering will not be
// limited by memory bandwidth ... but rather will be limited by
// arithmetic performance."
func (m *Machine) RunBeamSteeringPipelined(spec beamsteer.Spec) (core.Result, error) {
	return core.Checked(core.Prove(core.BeamSteering, core.Workload{Beam: spec}, core.Formulation{}), func() (core.Result, error) {
		m.reset()
		phase := KernelDesc{
			Name:        "beam-phase",
			Iterations:  (spec.Elements + m.cfg.Clusters - 1) / m.cfg.Clusters,
			AddsPerIter: 6,
		}
		for dw := 0; dw < spec.Dwells; dw++ {
			for d := 0; d < spec.Directions; d++ {
				// Inputs arrive in the SRF from the upstream kernel; outputs
				// leave through the SRF to the downstream kernel. No DRAM.
				ready := m.srfStream(2*spec.Elements, 0)
				kDone := m.runKernel(phase, ready)
				m.srfStream(spec.Elements, kDone)
			}
		}
		r := m.finish(core.BeamSteering,
			spec.Outputs()*spec.OpsPerOutput(), spec.Outputs()*spec.MemPerOutput())
		r.Notes = append(r.Notes, "pipelined mode: inputs and outputs stream through the SRF")
		return r, nil
	})
}

func (m *Machine) runBeamSteering(spec beamsteer.Spec, srfTables bool) (core.Result, error) {
	m.reset()
	phase := KernelDesc{
		Name:       "beam-phase",
		Iterations: (spec.Elements + m.cfg.Clusters - 1) / m.cfg.Clusters,
		// 5 adds + 1 shift per output; shifts execute on the adders.
		AddsPerIter: 6,
	}
	if srfTables {
		// Single initial table load.
		m.memStream(2*spec.Elements, 1, false, 0)
	}
	// Stores are deferred one invocation so the next table loads issue
	// first and the memory controllers never sit idle behind a store
	// that is still waiting on the cluster array.
	var pendingStore uint64
	havePending := false
	for dw := 0; dw < spec.Dwells; dw++ {
		for d := 0; d < spec.Directions; d++ {
			ready := uint64(0)
			if !srfTables {
				c1 := m.memStream(spec.Elements, 1, false, 0)
				c2 := m.memStream(spec.Elements, 1, false, 0)
				ready = maxAll([]uint64{c1, c2})
			}
			if havePending {
				m.memStream(spec.Elements, 1, true, pendingStore)
			}
			ready = m.srfStream(2*spec.Elements, ready)
			kDone := m.runKernel(phase, ready)
			pendingStore = m.srfStream(spec.Elements, kDone)
			havePending = true
		}
	}
	if havePending {
		m.memStream(spec.Elements, 1, true, pendingStore)
	}
	return m.finish(core.BeamSteering,
		spec.Outputs()*spec.OpsPerOutput(), spec.Outputs()*spec.MemPerOutput()), nil
}

func maxAll(v []uint64) uint64 {
	var m uint64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
