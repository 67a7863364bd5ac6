package roofline

import "sigkern/internal/core"

// EnvelopeFor returns the acceptable measured/predicted ratio band for
// one (machine, kernel) cell. The model is a lower bound, so a healthy
// simulator never lands below 1.0; the upper edge is how much real-code
// overhead the paper's own Table 4 shows on top of the peak model:
//
//   - Research machines land within ~1.1-4.2x of their bound (corner
//     turn 1.13-1.51x, the worst case being Imagine's CSLC at 4.2x,
//     dominated by kernel-startup overhead the model excludes). 6x
//     leaves headroom without masking real regressions.
//   - The G4 baselines sit far above the bound (up to ~13x on the
//     corner turn) because the model deliberately excludes memory
//     latency — "these architectures can generally hide memory
//     latency" holds for the research machines, not for a cache-based
//     scalar core missing in L2 every line. 20x bounds even that.
//
// A simulated cell outside its band means the simulator and its own
// analytic model have drifted apart — a correctness alarm, not noise.
func EnvelopeFor(machine string, k core.KernelID) (lo, hi float64) {
	lo = 1.0
	switch machine {
	case "PPC", "AltiVec":
		hi = 20.0
	default:
		hi = 6.0
	}
	return lo, hi
}

// Cell is one entry of the predicted-cycles grid: the analytic estimate
// plus, where a simulation exists, the model-vs-simulated error.
type Cell struct {
	Estimate
	// Simulated reports whether SimCycles/ErrorRatio are populated;
	// model-only cells (no machine implementation for the kernel, or
	// simulation skipped) carry just the estimate.
	Simulated bool `json:"simulated"`
	// SimCycles is the simulator's measurement for this cell.
	SimCycles uint64 `json:"simulated_cycles,omitempty"`
	// ErrorRatio is SimCycles over the refined analytic bound — the
	// regenerated Table 4 "measured/expected" column, extended to every
	// cell.
	ErrorRatio float64 `json:"error_ratio,omitempty"`
	// EnvelopeLo/EnvelopeHi bound the healthy ErrorRatio band and
	// WithinEnvelope reports whether the cell is inside it (always
	// false on model-only cells; check Simulated first).
	EnvelopeLo     float64 `json:"envelope_lo"`
	EnvelopeHi     float64 `json:"envelope_hi"`
	WithinEnvelope bool    `json:"within_envelope,omitempty"`
}

// GridKernels lists every kernel of the grid: the paper's three, then
// the extension kernels with declared metadata.
func GridKernels() []core.KernelID {
	return append(core.Kernels(), ExtensionKernels()...)
}

// Grid computes the full predicted-cycles grid — every Table 1 machine
// crossed with every kernel that declares metadata — attaching
// simulated cycles and error ratios for the cells present in measured
// (machine name -> kernel -> cycles; partial and nil maps are fine).
// This is the regenerated and extended Table 4.
func Grid(w core.Workload, measured map[string]map[core.KernelID]uint64) ([]Cell, error) {
	kernels := GridKernels()
	cells := make([]Cell, 0, len(table1)*len(kernels))
	for _, t := range table1 {
		for _, k := range kernels {
			e, err := ForJob(t.Machine, k, w)
			if err != nil {
				return nil, err
			}
			c := Cell{Estimate: e}
			c.EnvelopeLo, c.EnvelopeHi = EnvelopeFor(t.Machine, k)
			if mc, ok := measured[t.Machine][k]; ok && mc > 0 && e.Cycles > 0 {
				c.Simulated = true
				c.SimCycles = mc
				c.ErrorRatio = float64(mc) / float64(e.Cycles)
				c.WithinEnvelope = c.ErrorRatio >= c.EnvelopeLo && c.ErrorRatio <= c.EnvelopeHi
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}
