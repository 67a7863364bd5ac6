package roofline

import "fmt"

// Throughput is one machine's Table 1 row, in 32-bit words per cycle.
type Throughput struct {
	Machine string
	// OnChipRW is the nearest-memory bandwidth (on-chip DRAM for VIRAM,
	// SRF for Imagine, tile caches for Raw).
	OnChipRW float64
	// OffChipRW is the off-chip DRAM bandwidth (for VIRAM this is the
	// DMA path off chip; its kernels run from on-chip DRAM).
	OffChipRW float64
	// Compute is the peak 32-bit operations per cycle.
	Compute float64
	// IntCompute is the peak integer-operation rate where it differs
	// from Compute (VIRAM's second vector unit executes integer but not
	// FP operations, doubling integer throughput); 0 means same.
	IntCompute float64
	// StridedRW is the strided/indexed bandwidth where it differs from
	// OnChipRW (VIRAM's four address generators); 0 means same as
	// OnChipRW.
	StridedRW float64
	// KernelMemoryOnChip records whether this study's kernels stress the
	// on-chip (true) or off-chip (false) memory system.
	KernelMemoryOnChip bool
}

// table1 is the package-level immutable Table 1, extended with the two
// conventional PPC baselines so every study machine has a row (the paper
// prints only the research architectures; the G4 rows are derived from
// the simulator's own configuration — see EXPERIMENTS.md):
//
//   - PPC: one load/store port moving one 32-bit word per cycle on- and
//     off-chip (the PPC DRAM model transfers one sequential word per
//     cycle), and a 2-wide issue window bounding ops at 2 per cycle.
//   - AltiVec: the same single load/store port moves one 128-bit vector
//     (4 words) per cycle from cache, the off-chip path is unchanged,
//     and peak compute is the 4 vector lanes plus the scalar FPU —
//     5 ops/cycle, matching Table 2's 5 GFLOPS at 1 GHz.
//
// The Raw off-chip figure is 16 (sixteen single-word-per-cycle
// peripheral ports); the available scan of the paper prints "28", which
// is inconsistent with the port description, so the port-derived value
// is used here (see EXPERIMENTS.md).
//
// Callers must not mutate the returned rows; Table1 hands out the shared
// slice so the estimate hot path never allocates.
var table1 = []Throughput{
	{Machine: "PPC", OnChipRW: 1, OffChipRW: 1, Compute: 2},
	{Machine: "AltiVec", OnChipRW: 4, OffChipRW: 1, Compute: 5},
	{Machine: "VIRAM", OnChipRW: 8, OffChipRW: 2, Compute: 8, IntCompute: 16, StridedRW: 4, KernelMemoryOnChip: true},
	{Machine: "Imagine", OnChipRW: 16, OffChipRW: 2, Compute: 48},
	{Machine: "Raw", OnChipRW: 16, OffChipRW: 16, Compute: 16},
}

// table1Index maps machine name to its table1 position for O(1)
// ForMachine lookups on the estimate hot path.
var table1Index = func() map[string]int {
	idx := make(map[string]int, len(table1))
	for i, t := range table1 {
		idx[t.Machine] = i
	}
	return idx
}()

// Table1 returns the paper's Table 1 rows (plus the derived PPC
// baseline rows), in the paper's machine order. The slice is shared and
// must be treated as read-only.
func Table1() []Throughput { return table1 }

// ForMachine returns the Table 1 row for a machine name.
func ForMachine(name string) (Throughput, error) {
	if i, ok := table1Index[name]; ok {
		return table1[i], nil
	}
	return Throughput{}, fmt.Errorf("roofline: no Table 1 row for %q", name)
}

// KernelBandwidth returns the bandwidth this study's kernels actually
// stress: the on-chip array for VIRAM, the off-chip interface for
// everything else.
func (t Throughput) KernelBandwidth() float64 {
	if t.KernelMemoryOnChip {
		return t.OnChipRW
	}
	return t.OffChipRW
}

// IntRate returns the peak integer-operation rate: IntCompute where it
// differs from Compute, Compute otherwise.
func (t Throughput) IntRate() float64 {
	if t.IntCompute != 0 {
		return t.IntCompute
	}
	return t.Compute
}
