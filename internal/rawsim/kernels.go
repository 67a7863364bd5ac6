package rawsim

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

// ctBlock is the corner-turn block edge: 64x64 words (16 KB) fits one
// tile's data memory, per the paper's MIT-designed algorithm.
const ctBlock = 64

// cslcRadix is the FFT radix of Raw's CSLC: the paper's radix-2, since
// radix-4 spills the tile processor's registers (see RunCSLCRadix4).
const cslcRadix = fft.Radix2

// Formulation implements core.Machine: the corner turn in 64x64 blocks,
// and radix-2 CSLC.
func (m *Machine) Formulation(core.Workload) core.Formulation {
	return core.Formulation{CornerTurn: cornerturn.Transposer{Block: ctBlock}, CSLC: cslcRadix}
}

// addrLoopFraction approximates the address-arithmetic and loop-control
// instructions of the C-compiled CSLC inner loops as a fraction of the
// productive (flop + load/store) instructions. The paper attributes
// roughly a third of Raw's CSLC cycles to "address and index
// calculations and loop overhead"; 0.31 reproduces that share.
const addrLoopFraction = 0.31

// spillLSPerRadix4Bfly is the extra local loads/stores per radix-4
// butterfly when the working set exceeds the MIPS register file — the
// register spilling that made the paper prefer radix-2 on Raw.
const spillLSPerRadix4Bfly = 16

// RunCornerTurn implements core.Machine with the paper's algorithm:
// 64x64-word blocks staged through tile memories, one load and one store
// instruction per DRAM-to-DRAM word, all main-memory operations
// sequential.
func (m *Machine) RunCornerTurn(spec cornerturn.Spec) (core.Result, error) {
	m.reset()
	// A 64x64 block must fit in tile memory.
	blockBytes := ctBlock * ctBlock * 4
	if blockBytes > m.cfg.TileMem.CapacityBytes {
		return core.Result{}, fmt.Errorf("rawsim: %d-byte block exceeds tile memory", blockBytes)
	}
	blocksR := (spec.Rows + ctBlock - 1) / ctBlock
	blocksC := (spec.Cols + ctBlock - 1) / ctBlock
	nblocks := blocksR * blocksC
	tiles := m.Tiles()
	for b := 0; b < nblocks; b++ {
		tile := b % tiles
		r0 := (b / blocksC) * ctBlock
		c0 := (b % blocksC) * ctBlock
		rows := minInt(ctBlock, spec.Rows-r0)
		cols := minInt(ctBlock, spec.Cols-c0)
		words := rows * cols
		// Inbound: the block streams from DRAM; the tile stores each word
		// into local memory (transposing via the store index).
		m.portIn(tile, words, true)
		// Per-row loop and address arithmetic.
		m.compute(tile, rows*m.cfg.LoopOverheadPerRow, catAddrLoop)
		// Outbound: the tile loads each word back onto the network in
		// transposed order; main-memory writes are sequential.
		m.portOut(tile, words, true)
	}
	return m.finish(core.CornerTurn, 2*spec.Words(), 2*spec.Words()), nil
}

// RunCSLC implements core.Machine with the paper's data-parallel MIMD
// implementation: whole sub-band sets per tile, radix-2 FFTs (the radix-4
// variant spills registers; see RunCSLCRadix4), data cached in tile
// memory via dynamic-network misses. As in the paper, the reported
// number extrapolates to perfect load balance; RunCSLCImbalanced reports
// the raw 73-sets-on-16-tiles measurement.
func (m *Machine) RunCSLC(spec cslc.Spec) (core.Result, error) {
	r, err := m.runCSLC(spec, cslcRadix, false)
	if err != nil {
		return core.Result{}, err
	}
	// Perfect-balance extrapolation: scale the busiest tile's sets down
	// to the average load (the paper: "we report the performance numbers
	// for CSLC on Raw based on an extrapolation that assumes perfect
	// load balancing").
	maxSets := (spec.SubBands + m.Tiles() - 1) / m.Tiles()
	avgNum, avgDen := uint64(spec.SubBands), uint64(m.Tiles())*uint64(maxSets)
	r.Cycles = (r.Cycles*avgNum + avgDen/2) / avgDen
	r.Breakdown.Scale(avgNum, avgDen)
	r.Notes = append(r.Notes,
		fmt.Sprintf("extrapolated to perfect load balance (%d sets on %d tiles)", spec.SubBands, m.Tiles()))
	return r, nil
}

// RunCSLCImbalanced reports the unextrapolated measurement, in which
// tiles with five sets gate the tiles with four (~8% idle).
func (m *Machine) RunCSLCImbalanced(spec cslc.Spec) (core.Result, error) {
	return provedCSLC(spec, cslcRadix, func() (core.Result, error) { return m.runCSLC(spec, cslcRadix, false) })
}

// RunCSLCRadix4 is the ablation the paper describes: the radix-4 FFT
// does ~1.5x fewer operations but spills registers on the tile
// processor, which costs it more than it saves. N=128 is not a power of
// four, so the "radix-4" variant is the mixed radix-4/2 plan, as on the
// other machines.
func (m *Machine) RunCSLCRadix4(spec cslc.Spec) (core.Result, error) {
	return provedCSLC(spec, fft.MixedRadix42, func() (core.Result, error) { return m.runCSLC(spec, fft.MixedRadix42, true) })
}

// provedCSLC is an ablation's CSLC run: it proves radix on spec, then
// times run and stamps its result Verified.
func provedCSLC(spec cslc.Spec, radix fft.Radix, run func() (core.Result, error)) (core.Result, error) {
	return core.Checked(core.Prove(core.CSLC, core.Workload{CSLC: spec}, core.Formulation{CSLC: radix}), run)
}

// RunCSLCDMA is the paper's other CSLC improvement: "most of this
// stalling could have been eliminated by implementing a streaming DMA
// transfer to the local memory that is overlapped with the computation".
// The data arrives over the static network into local memory while the
// previous set computes, so the cache-fill stalls disappear (the
// load/store and address instructions remain).
func (m *Machine) RunCSLCDMA(spec cslc.Spec) (core.Result, error) {
	spec.Radix = cslcRadix
	return provedCSLC(spec, spec.Radix, func() (core.Result, error) {
		m.reset()
		fwd, inv, err := cslcPlans(spec)
		if err != nil {
			return core.Result{}, err
		}
		bandWords := 2 * spec.FFTSize
		tiles := m.Tiles()
		for set := 0; set < spec.SubBands; set++ {
			tile := set % tiles
			// DMA: the set's input streams to local memory via the static
			// network with no tile instructions; the port reservation applies
			// the bandwidth constraint, and with double buffering the
			// transfer overlaps the previous set's compute.
			m.portIn(tile, spec.Channels()*bandWords, false)
			for ch := 0; ch < spec.Channels(); ch++ {
				m.emitFFT(tile, fwd, 0)
			}
			for mc := 0; mc < spec.MainChannels; mc++ {
				w := spec.WeightCountsPerBand()
				m.compute(tile, int(w.Flops()), catCompute)
				m.localMem(tile, int(w.Loads+w.Stores))
				m.compute(tile, int(addrLoopFraction*float64(w.Flops()+w.Loads+w.Stores)), catAddrLoop)
				m.emitFFT(tile, inv, 0)
				m.portOut(tile, bandWords, false)
			}
		}
		counts, err := spec.TotalCounts()
		if err != nil {
			return core.Result{}, err
		}
		r := m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores)
		r.Notes = append(r.Notes, "streaming-DMA variant: cache-miss stalls overlapped with compute")
		return r, nil
	})
}

func (m *Machine) runCSLC(spec cslc.Spec, radix fft.Radix, spill bool) (core.Result, error) {
	spec.Radix = radix
	m.reset()
	fwd, inv, err := cslcPlans(spec)
	if err != nil {
		return core.Result{}, err
	}
	spillLS := 0
	if spill {
		// Butterfly count of the mixed plan.
		bflies := 2*(spec.FFTSize/8)*log4(spec.FFTSize/2) + spec.FFTSize/2
		spillLS = bflies * spillLSPerRadix4Bfly
	}

	bandWords := 2 * spec.FFTSize
	tiles := m.Tiles()
	for set := 0; set < spec.SubBands; set++ {
		tile := set % tiles
		// Input data arrives through the cache: one set's four channels.
		lines := (spec.Channels()*bandWords + m.cfg.CacheLineWords - 1) / m.cfg.CacheLineWords
		m.cacheFill(tile, lines)
		// Forward FFTs.
		for ch := 0; ch < spec.Channels(); ch++ {
			m.emitFFT(tile, fwd, spillLS)
		}
		// Weight application and inverse FFTs per main channel.
		for mc := 0; mc < spec.MainChannels; mc++ {
			w := spec.WeightCountsPerBand()
			m.compute(tile, int(w.Flops()), catCompute)
			m.localMem(tile, int(w.Loads+w.Stores))
			m.compute(tile, int(addrLoopFraction*float64(w.Flops()+w.Loads+w.Stores)), catAddrLoop)
			m.emitFFT(tile, inv, spillLS)
			// Results write back through the cache (write-allocate).
			outLines := (bandWords + m.cfg.CacheLineWords - 1) / m.cfg.CacheLineWords
			m.cacheFill(tile, outLines)
		}
	}
	counts, err := spec.TotalCounts()
	if err != nil {
		return core.Result{}, err
	}
	return m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores), nil
}

// cslcPlans returns the forward and inverse plans of spec's transforms.
func cslcPlans(spec cslc.Spec) (fwd, inv *fft.Plan, err error) {
	if fwd, err = fft.NewPlan(spec.FFTSize, spec.Radix, false); err == nil {
		inv, err = fft.NewPlan(spec.FFTSize, spec.Radix, true)
	}
	return fwd, inv, err
}

// emitFFT charges one transform's instruction mix to a tile.
func (m *Machine) emitFFT(tile int, plan *fft.Plan, spillLS int) {
	c := plan.Counts()
	m.compute(tile, int(c.Flops()), catCompute)
	m.localMem(tile, int(c.Loads+c.Stores)+spillLS)
	m.compute(tile, int(addrLoopFraction*float64(c.Flops()+c.Loads+c.Stores)), catAddrLoop)
}

func log4(n int) int {
	l := 0
	for n > 1 {
		n >>= 2
		l++
	}
	return l
}

// RunCSLCStream is the paper's forward-looking variant: the FFT data
// streams over the static network instead of through the cache, so the
// cache-miss stalls disappear and the explicit load/store instructions
// are replaced by network-operand consumption ("A primitive
// implementation result suggests about 70% of FFT performance
// improvement"). The weight stage keeps its register-resident form.
func (m *Machine) RunCSLCStream(spec cslc.Spec) (core.Result, error) {
	spec.Radix = cslcRadix
	return provedCSLC(spec, spec.Radix, func() (core.Result, error) {
		m.reset()
		fwd, inv, err := cslcPlans(spec)
		if err != nil {
			return core.Result{}, err
		}
		bandWords := 2 * spec.FFTSize
		tiles := m.Tiles()
		for set := 0; set < spec.SubBands; set++ {
			tile := set % tiles
			for ch := 0; ch < spec.Channels(); ch++ {
				c := fwd.Counts()
				instrs := int(c.Flops()) + int(addrLoopFraction*float64(c.Flops()))
				m.streamCompute(tile, bandWords, 0, instrs)
			}
			for mc := 0; mc < spec.MainChannels; mc++ {
				w := spec.WeightCountsPerBand()
				m.compute(tile, int(w.Flops()), catCompute)
				m.compute(tile, int(addrLoopFraction*float64(w.Flops())), catAddrLoop)
				c := inv.Counts()
				instrs := int(c.Flops()) + int(addrLoopFraction*float64(c.Flops()))
				m.streamCompute(tile, 0, bandWords, instrs)
			}
		}
		counts, err := spec.TotalCounts()
		if err != nil {
			return core.Result{}, err
		}
		r := m.finish(core.CSLC, counts.Flops(), counts.Loads+counts.Stores)
		r.Notes = append(r.Notes, "stream-interface FFT variant (no loads/stores, cache stalls hidden)")
		return r, nil
	})
}

// RunBeamSteering implements core.Machine in the paper's stream mode:
// the calibration tables stream from the port DRAMs over the static
// network and the tiles operate on the operands directly from the
// network — "loads and stores are not necessary and ALU utilization is
// very high".
func (m *Machine) RunBeamSteering(spec beamsteer.Spec) (core.Result, error) {
	m.reset()
	tiles := m.Tiles()
	per := spec.Elements / tiles
	extra := spec.Elements % tiles
	for dw := 0; dw < spec.Dwells; dw++ {
		for d := 0; d < spec.Directions; d++ {
			for tile := 0; tile < tiles; tile++ {
				n := per
				if tile < extra {
					n++
				}
				if n == 0 {
					continue
				}
				m.streamCompute(tile, 2*n, n, int(spec.OpsPerOutput())*n)
				m.compute(tile, 8, catAddrLoop) // per-beam loop control
			}
		}
	}
	return m.finish(core.BeamSteering,
		spec.Outputs()*spec.OpsPerOutput(), spec.Outputs()*spec.MemPerOutput()), nil
}

// RunBeamSteeringMIMD runs beam steering in the paper's
// "easy-to-program but less efficient MIMD mode, in which data is routed
// to local memories through cache misses" — the mode the paper used for
// CSLC but deliberately avoided for beam steering. Each output costs its
// two table loads and one store as real instructions, plus the cache
// traffic for the tables and output stream.
func (m *Machine) RunBeamSteeringMIMD(spec beamsteer.Spec) (core.Result, error) {
	return core.Checked(core.Prove(core.BeamSteering, core.Workload{Beam: spec}, core.Formulation{}), func() (core.Result, error) {
		m.reset()
		tiles := m.Tiles()
		per := spec.Elements / tiles
		extra := spec.Elements % tiles
		for dw := 0; dw < spec.Dwells; dw++ {
			for d := 0; d < spec.Directions; d++ {
				for tile := 0; tile < tiles; tile++ {
					n := per
					if tile < extra {
						n++
					}
					if n == 0 {
						continue
					}
					// Table slices and the output arrive/leave through the
					// cache (first dwell misses; tables then resident, the
					// output stream always write-allocates).
					if dw == 0 && d == 0 {
						lines := (2*n + m.cfg.CacheLineWords - 1) / m.cfg.CacheLineWords
						m.cacheFill(tile, lines)
					}
					outLines := (n + m.cfg.CacheLineWords - 1) / m.cfg.CacheLineWords
					m.cacheFill(tile, outLines)
					// Explicit loads and stores plus the arithmetic.
					m.localMem(tile, 3*n)
					m.compute(tile, int(spec.OpsPerOutput())*n, catCompute)
					m.compute(tile, 8, catAddrLoop)
				}
			}
		}
		r := m.finish(core.BeamSteering,
			spec.Outputs()*spec.OpsPerOutput(), spec.Outputs()*spec.MemPerOutput())
		r.Notes = append(r.Notes, "MIMD cache mode (the paper's measurement used stream mode)")
		return r, nil
	})
}

// streamCompute runs a stream-mode loop on one tile: inWords arrive from
// the tile's port over the static network, the tile executes instrs ALU
// instructions consuming them as register operands, and outWords flow
// back to the port, all overlapped.
func (m *Machine) streamCompute(tile, inWords, outWords, instrs int) {
	port := m.tilePort(tile)
	ctl := m.ports[port]
	start := m.tileClock[tile]
	if m.portFree[port] > start {
		start = m.portFree[port]
	}
	ctl.SyncTo(start)
	sr := ctl.Stream(dram.Request{Stride: 1, Count: inWords})
	m.portFree[port] = start + sr.Cycles
	arrival := m.mesh.SendStatic(m.mesh.PortTile(port), tile, inWords, start)

	// The tile computes as operands arrive; it finishes no earlier than
	// its own instruction stream and no earlier than the last input plus
	// the final output's worth of work.
	tail := 1
	if outWords > 0 {
		tail = instrs / maxInt(outWords, 1)
	}
	instrDone := m.tileClock[tile] + uint64(instrs)
	computeDone := instrDone
	if lastIn := arrival + uint64(tail); lastIn > computeDone {
		computeDone = lastIn
	}
	m.tileBusy[tile][catCompute] += uint64(instrs)
	if computeDone > instrDone {
		m.tileBusy[tile][catNetWait] += computeDone - instrDone
	}
	m.tileClock[tile] = computeDone
	m.counters.instructions += uint64(instrs)
	m.counters.portWordsIn += uint64(inWords)

	if outWords > 0 {
		// Results stream to the port as they are produced.
		sendStart := computeDone
		if sendStart > uint64(outWords) {
			sendStart -= uint64(outWords)
		}
		m.mesh.SendStatic(tile, m.mesh.PortTile(port), outWords, sendStart)
		wstart := sendStart + m.mesh.StaticLatency(tile, m.mesh.PortTile(port))
		if m.portFree[port] > wstart {
			wstart = m.portFree[port]
		}
		ctl.SyncTo(wstart)
		wr := ctl.Stream(dram.Request{Stride: 1, Count: outWords, Write: true})
		m.portFree[port] = wstart + wr.Cycles
		m.counters.portWordsOut += uint64(outWords)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
