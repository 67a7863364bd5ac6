// Package ppc models the study's conventional baseline: a 1 GHz
// PowerPC G4 (PowerMac G4) in two variants — plain scalar code and
// hand-inserted AltiVec (4 x 32-bit SIMD) code. The paper measured this
// machine directly (mach_absolute_time on MacOS X); we substitute a
// timing model because the hardware is long gone.
//
// The model is a superscalar cost model plus a simulated two-level cache
// hierarchy over DRAM:
//
//   - instruction throughput: IssueWidth instructions per cycle overall,
//     one load/store port, one scalar FPU (latency FPLatency), one
//     vector unit (4 lanes, latency VecLatency);
//   - per-iteration critical-path serialization: compiled loops rarely
//     reach resource bounds, so each loop supplies its dependence depth;
//   - memory stalls from an L1/L2/DRAM simulation of the kernel's actual
//     access pattern, divided by a small memory-level-parallelism factor.
//
// The published G4 numbers embed real-code overheads (array-of-structs
// complex layout forcing AltiVec permutes, sub-band extraction copies,
// compiler-scheduled rather than hand-scheduled scalar FP). The kernel
// programs below include those instruction expansions explicitly; where
// a residual factor remains it is called out in EXPERIMENTS.md.
package ppc

import (
	"fmt"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/sim"
)

// Variant selects scalar or AltiVec code generation.
type Variant int

const (
	// Scalar is plain compiled C.
	Scalar Variant = iota
	// AltiVec uses the 4-wide vector extension.
	AltiVec
)

// String returns the paper's row label for the variant.
func (v Variant) String() string {
	if v == AltiVec {
		return "AltiVec"
	}
	return "PPC"
}

// Config parameterizes the machine model.
type Config struct {
	// Variant is fixed per machine row at instantiation (the PPC row is
	// always Scalar, the AltiVec row always AltiVec), so it is excluded
	// from serialization: a saved config cannot flip a row's variant.
	Variant  Variant `json:"-"`
	ClockMHz float64
	// IssueWidth is the sustained instructions per cycle ceiling.
	IssueWidth int
	// FPLatency and VecLatency are dependent-operation latencies.
	FPLatency, VecLatency int
	// LSPorts is the number of load/store pipes (1 on the G4).
	LSPorts int
	// MLP divides read-miss stall time: the effective number of
	// overlapped outstanding misses (the G4's in-order load queue
	// achieves little).
	MLP float64
	// MLPStore divides write-miss stall time: store misses drain through
	// the store queue and gathering write buffers, so they overlap far
	// better than loads.
	MLPStore float64
	// L1 and L2 configure the cache hierarchy; DRAM the memory behind it.
	L1, L2 cache.Config
	DRAM   dram.Config
}

// DefaultConfig returns the 1 GHz PowerMac G4 model for a variant.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:    v,
		ClockMHz:   1000,
		IssueWidth: 2,
		FPLatency:  4,
		VecLatency: 4,
		LSPorts:    1,
		MLP:        1.2,
		MLPStore:   3,
		L1:         cache.G4L1(),
		L2:         cache.G4L2(),
		DRAM:       dram.PPCDRAM(),
	}
}

// Absolute upper bounds on a G4 configuration, far above the real core
// and every swept one (the DSE's ppc.IssueWidth axis reaches 16). They
// keep the cost model's per-iteration cycles, and their products with
// iteration counts, far from uint64 overflow.
const (
	maxIssueWidth = 64
	maxLSPorts    = 64
	maxLatency    = 10_000
	maxMLP        = 64
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth <= 0 || c.LSPorts <= 0:
		return fmt.Errorf("ppc: IssueWidth %d / LSPorts %d must be positive", c.IssueWidth, c.LSPorts)
	case c.IssueWidth > maxIssueWidth:
		return fmt.Errorf("ppc: IssueWidth %d above the %d limit", c.IssueWidth, maxIssueWidth)
	case c.LSPorts > maxLSPorts:
		return fmt.Errorf("ppc: LSPorts %d above the %d limit", c.LSPorts, maxLSPorts)
	case c.FPLatency <= 0 || c.VecLatency <= 0:
		return fmt.Errorf("ppc: FPLatency %d / VecLatency %d must be positive", c.FPLatency, c.VecLatency)
	case c.FPLatency > maxLatency:
		return fmt.Errorf("ppc: FPLatency %d above the %d limit", c.FPLatency, maxLatency)
	case c.VecLatency > maxLatency:
		return fmt.Errorf("ppc: VecLatency %d above the %d limit", c.VecLatency, maxLatency)
	case !(c.MLP >= 1) || !(c.MLPStore >= 1): // also false for NaN
		return fmt.Errorf("ppc: MLP %v / MLPStore %v must be at least 1", c.MLP, c.MLPStore)
	case c.MLP > maxMLP:
		return fmt.Errorf("ppc: MLP %v above the %d limit", c.MLP, maxMLP)
	case c.MLPStore > maxMLP:
		return fmt.Errorf("ppc: MLPStore %v above the %d limit", c.MLPStore, maxMLP)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// Machine is one G4 instance (scalar or AltiVec). It is not safe for
// concurrent use.
type Machine struct {
	cfg Config
	// l1 heads the L1/L2/DRAM hierarchy, which the first walk that runs
	// builds (see hierarchy); nil until then.
	l1        *cache.Cache
	readStall float64 // accumulated raw read-miss latency (pre-MLP)
	writeStal float64 // accumulated raw write-miss latency (pre-MLP)

	// Event counts and cycle attribution of the current kernel run;
	// result reports them as a Stats and a Breakdown.
	instructions, memAccesses   uint64
	computeCycles, memoryCycles uint64
}

// New returns a machine for cfg, panicking on invalid configuration. It
// allocates no cache hierarchy: a run whose walk cost the trace memo
// holds never needs one, so building an instance per run is cheap.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{cfg: cfg}
}

// Name implements core.Machine ("PPC" or "AltiVec").
func (m *Machine) Name() string { return m.cfg.Variant.String() }

// Params implements core.Machine with the paper's Table 2 row.
func (m *Machine) Params() core.Params {
	return core.Params{
		ClockMHz:    m.cfg.ClockMHz,
		ALUs:        4,
		PeakGFLOPS:  5,
		Description: "1 GHz PowerPC G4 (PowerMac G4), AltiVec 4x32-bit SIMD",
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Vector reports whether the machine runs AltiVec code.
func (m *Machine) Vector() bool { return m.cfg.Variant == AltiVec }

// Reset implements core.Resettable: it rewinds the cache hierarchy, if
// a walk has built one, and all accounting, so a reused instance gives
// bit-identical cycle counts. Every kernel entry point calls it.
func (m *Machine) Reset() {
	if m.l1 != nil {
		m.l1.Reset() // cascades to L2 and DRAM
	}
	m.readStall = 0
	m.writeStal = 0
	m.instructions, m.memAccesses = 0, 0
	m.computeCycles, m.memoryCycles = 0, 0
}

// hierarchy builds the L1/L2/DRAM hierarchy on the instance's first
// walk that runs; later walks find it, rewound by Reset.
func (m *Machine) hierarchy() {
	if m.l1 == nil {
		m.l1 = cache.New(m.cfg.L1, cache.NewOverDRAM(m.cfg.L2, dram.NewController(m.cfg.DRAM)))
	}
}

// loopMix describes one inner loop's per-iteration instruction mix.
type loopMix struct {
	name string
	// iterations of the loop body.
	iters uint64
	// per-iteration instruction classes.
	intOps, fpOps, vecOps, lsOps uint64
	// critical is the per-iteration dependence-chain latency in cycles;
	// the loop cannot run faster than this when the compiler does not
	// software-pipeline across iterations.
	critical uint64
}

// loopCycles returns the loop's compute cycles (memory stalls are
// accounted separately through the cache simulation).
func (m *Machine) loopCycles(l loopMix) uint64 {
	total := l.intOps + l.fpOps + l.vecOps + l.lsOps
	perIter := sim.CeilDiv(total, uint64(m.cfg.IssueWidth))
	if v := l.fpOps; v > perIter { // one scalar FPU
		perIter = v
	}
	if v := l.vecOps; v > perIter { // one vector unit
		perIter = v
	}
	if v := sim.CeilDiv(l.lsOps, uint64(m.cfg.LSPorts)); v > perIter {
		perIter = v
	}
	if l.critical > perIter {
		perIter = l.critical
	}
	cycles := l.iters * perIter
	m.computeCycles += cycles
	m.instructions += l.iters * total
	return cycles
}

// access runs one byte-addressed access through the cache hierarchy and
// accumulates the miss stall beyond the L1 hit time.
func (m *Machine) access(addr int, write bool) {
	lat := m.l1.Access(addr, write)
	hit := uint64(m.cfg.L1.HitLatency)
	if lat > hit {
		if write {
			m.writeStal += float64(lat - hit)
		} else {
			m.readStall += float64(lat - hit)
		}
	}
	m.memAccesses++
}

// memStallCycles converts accumulated miss latency into stall cycles via
// the read and write MLP factors and charges them to the breakdown.
func (m *Machine) memStallCycles() uint64 {
	stall := uint64(m.readStall/m.cfg.MLP + m.writeStal/m.cfg.MLPStore)
	m.memoryCycles += stall
	m.readStall = 0
	m.writeStal = 0
	return stall
}

// result assembles a core.Result.
func (m *Machine) result(kernel core.KernelID, cycles, ops, words uint64) core.Result {
	r := core.Result{
		Machine: m.Name(),
		Kernel:  kernel,
		Cycles:  cycles,
		Ops:     ops,
		Words:   words,
	}
	r.Breakdown.Add("compute", m.computeCycles)
	r.Breakdown.Add("memory", m.memoryCycles)
	r.Stats.Inc("instructions", m.instructions)
	r.Stats.Inc("mem_accesses", m.memAccesses)
	return r
}
