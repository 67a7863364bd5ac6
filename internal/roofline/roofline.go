// Package roofline implements the paper's Section 2.5 performance model
// as an analytical roofline engine. "We model computation and memory
// bandwidth. Memory latency is not modeled since these architectures can
// generally hide memory latency on the kernels used in this study."
// Every kernel declares its resource demands (words moved, operations,
// strided fraction), every machine contributes its Table 1
// peak-throughput row, and the predicted execution time is
//
//	cycles = max(compute bound, memory bound)
//
// exactly as the paper computes its Table 4 expectations. The engine
// answers in microseconds — no simulator state is built — which is what
// lets the serving layer offer it as a first-class "estimate" quality
// tier next to full simulation, and what lets the simulators be checked
// continuously against their own analytic model (drift alerting).
//
// For the corner turn, PeakCycles and Cycles are the peak and strided
// columns of the paper's Table 4. The tests pin the paper kernels'
// bounds to the hand-written Section 2.5 formulas. The extension kernels
// (matmul, pfb, equalize, fft) get bounds from the same machinery via
// their declared metadata.
package roofline

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/matmul"
	"sigkern/internal/kernels/pfb"
	"sigkern/internal/sim"
)

// Extension kernel identifiers: kernels the analytic model covers that
// are not part of the paper's Table 3 (core.Kernels()). MatMul already
// has a core constant; the pipeline kernels are named here.
const (
	PFB      core.KernelID = "pfb"
	Equalize core.KernelID = "equalize"
	FFT      core.KernelID = "fft"
)

// fftBatch is the transform count behind the FFT extension cell: one
// dwell of 256 range lines, 1024 points each — big enough that the
// per-machine bounds land in the same kilocycle range as the paper
// kernels.
const fftBatch = 256

// fftPoints is the per-transform length of the FFT extension cell.
const fftPoints = 1024

// equalizeSamples is the per-beam sample count behind the equalize
// extension cell, matching the CSLC processing interval (8192 samples).
const equalizeSamples = 8192

// Costs declares one kernel instance's analytical resource demands —
// the per-kernel metadata the roofline model consumes.
type Costs struct {
	// SeqWords is the unit-stride 32-bit-word traffic through the
	// memory level the kernel stresses (Throughput.KernelBandwidth).
	SeqWords uint64 `json:"seq_words"`
	// StridedWords is the word traffic through strided or indexed
	// accesses; machines with a separate strided path (VIRAM's address
	// generators) bound it by StridedRW instead of the full bandwidth.
	StridedWords uint64 `json:"strided_words,omitempty"`
	// FPOps and IntOps are the real floating-point and integer/issue
	// operation counts; the integer rate differs from Compute on
	// machines with dedicated integer units (VIRAM).
	FPOps  uint64 `json:"fp_ops,omitempty"`
	IntOps uint64 `json:"int_ops,omitempty"`
	// MemNotBinding records that the kernel's working set stays on chip
	// so memory bandwidth is not a binding constraint — the paper's CSLC
	// convention ("the kernel's working set fits on chip everywhere").
	// Word counts still feed the arithmetic-intensity figure.
	MemNotBinding bool `json:"mem_not_binding,omitempty"`
}

// Words returns the total declared word traffic.
func (c Costs) Words() uint64 { return c.SeqWords + c.StridedWords }

// Ops returns the total declared operation count.
func (c Costs) Ops() uint64 { return c.FPOps + c.IntOps }

// Intensity returns the arithmetic intensity in operations per 32-bit
// word — the roofline x-axis. Zero when the kernel moves no words.
func (c Costs) Intensity() float64 {
	if w := c.Words(); w > 0 {
		return float64(c.Ops()) / float64(w)
	}
	return 0
}

// Estimate is one analytic prediction: the compute and memory bounds
// and their max, for one (machine, kernel-instance) pair.
type Estimate struct {
	Machine string        `json:"machine"`
	Kernel  core.KernelID `json:"kernel"`
	// ComputeBound is ops over peak op throughput (FP and integer rated
	// separately), in cycles.
	ComputeBound uint64 `json:"compute_bound_cycles"`
	// PeakMemBound is all declared words over the kernel-level peak
	// bandwidth — the "peak model" column of the paper's Table 4. Zero
	// when memory is not binding.
	PeakMemBound uint64 `json:"peak_memory_bound_cycles,omitempty"`
	// MemBound refines PeakMemBound with the machine's strided-access
	// limit where one exists (the "strided model" column); equal to
	// PeakMemBound otherwise.
	MemBound uint64 `json:"memory_bound_cycles,omitempty"`
	// PeakCycles is max(ComputeBound, PeakMemBound): the Section 2.5
	// bound the paper compares its measurements against.
	PeakCycles uint64 `json:"peak_cycles"`
	// Cycles is max(ComputeBound, MemBound): the tightest analytic
	// bound, and what the estimate tier serves.
	Cycles uint64 `json:"cycles"`
	// Bound names the binding constraint: "compute" or "memory".
	Bound string `json:"bound"`
	// Intensity is the kernel's arithmetic intensity in ops per word.
	Intensity float64 `json:"arithmetic_intensity,omitempty"`
	// Ops and Words echo the declared totals so estimate results carry
	// the same accounting fields as simulated ones.
	Ops   uint64 `json:"ops"`
	Words uint64 `json:"words"`
}

// For computes the roofline estimate for one Table 1 row and one set of
// declared kernel costs.
func For(t Throughput, c Costs) Estimate {
	e := Estimate{
		Machine:   t.Machine,
		Intensity: c.Intensity(),
		Ops:       c.Ops(),
		Words:     c.Words(),
	}
	if c.FPOps > 0 {
		e.ComputeBound += sim.CeilDiv(c.FPOps, uint64(t.Compute))
	}
	if c.IntOps > 0 {
		e.ComputeBound += sim.CeilDiv(c.IntOps, uint64(t.IntRate()))
	}
	if !c.MemNotBinding && c.Words() > 0 {
		bw := uint64(t.KernelBandwidth())
		e.PeakMemBound = sim.CeilDiv(c.Words(), bw)
		e.MemBound = e.PeakMemBound
		if t.StridedRW > 0 && c.StridedWords > 0 {
			e.MemBound = sim.CeilDiv(c.StridedWords, uint64(t.StridedRW)) +
				sim.CeilDiv(c.SeqWords, bw)
		}
	}
	e.PeakCycles = maxU64(e.ComputeBound, e.PeakMemBound)
	e.Cycles = maxU64(e.ComputeBound, e.MemBound)
	e.Bound = "compute"
	if e.MemBound > e.ComputeBound {
		e.Bound = "memory"
	}
	return e
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// CostsFor returns the declared costs of one paper kernel as
// instantiated by the workload.
func CostsFor(k core.KernelID, w core.Workload) (Costs, error) {
	switch k {
	case core.CornerTurn:
		// One strided read and one sequential write per element (the
		// VIRAM formulation reads columns through the address
		// generators), and a load+store instruction pair per word for
		// the issue-rate bound.
		s := w.CornerTurn
		return Costs{
			SeqWords:     s.Words(),
			StridedWords: s.Words(),
			IntOps:       s.MoveOps(),
		}, nil
	case core.CSLC:
		counts, err := w.CSLC.TotalCounts()
		if err != nil {
			return Costs{}, err
		}
		return Costs{
			SeqWords:      counts.Loads + counts.Stores,
			FPOps:         counts.Flops(),
			MemNotBinding: true, // working set fits on chip everywhere
		}, nil
	case core.BeamSteering:
		s := w.Beam
		return Costs{
			SeqWords: s.Outputs() * s.MemPerOutput(),
			IntOps:   s.Outputs() * s.OpsPerOutput(),
		}, nil
	}
	if c, ok := extensionCosts(k); ok {
		return c, nil
	}
	return Costs{}, fmt.Errorf("roofline: no declared metadata for kernel %q", k)
}

// ExtensionKernels lists the non-paper kernels with declared metadata,
// in grid presentation order.
func ExtensionKernels() []core.KernelID {
	return []core.KernelID{core.MatMul, PFB, Equalize, FFT}
}

// extensionCosts returns the declared costs of an extension kernel at
// its default spec (extension cells are not workload-parameterized; the
// job API serves only the paper kernels).
func extensionCosts(k core.KernelID) (Costs, bool) {
	switch k {
	case core.MatMul:
		s := matmul.DefaultSpec()
		return Costs{SeqWords: s.MinWords(), FPOps: s.Flops()}, true
	case PFB:
		w := pfb.DefaultWorkload()
		return Costs{SeqWords: w.Words(), FPOps: w.TotalOps()}, true
	case Equalize:
		s := equalize.DefaultSpec()
		n := uint64(s.Beams) * equalizeSamples
		return Costs{SeqWords: n * s.WordsPerSample(), FPOps: n * s.OpsPerSample()}, true
	case FFT:
		counts := fft.MustPlan(fftPoints, fft.Radix2, false).Counts().Scale(fftBatch)
		return Costs{
			SeqWords:      counts.Loads + counts.Stores,
			FPOps:         counts.Flops(),
			MemNotBinding: true, // each transform's working set fits on chip
		}, true
	}
	return Costs{}, false
}

// ForJob computes the estimate for one (machine, kernel, workload)
// request — the estimate tier's entry point.
func ForJob(machine string, k core.KernelID, w core.Workload) (Estimate, error) {
	t, err := ForMachine(machine)
	if err != nil {
		return Estimate{}, err
	}
	c, err := CostsFor(k, w)
	if err != nil {
		return Estimate{}, err
	}
	e := For(t, c)
	e.Kernel = k
	return e, nil
}
