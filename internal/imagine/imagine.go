// Package imagine models the Stanford Imagine stream processor: eight
// SIMD ALU clusters (three adders, two multipliers, one divider, one
// inter-cluster communication port each) fed from a 128 KB stream
// register file (SRF), with two off-chip memory-stream controllers of
// one word per cycle each.
//
// The model captures the properties the paper's analysis turns on:
//
//   - off-chip bandwidth of 2 words/cycle total (Section 4.2: "87% of
//     the cycles in the Imagine corner turn are due to memory
//     transfers");
//   - stream-descriptor-register pressure: at most StreamDescRegs
//     streams may be in flight, which limits software pipelining
//     (Section 4.2: "a limitation induced by the stream descriptor
//     registers prevented full software pipelining");
//   - VLIW kernel execution on the cluster array with software-pipeline
//     fill/drain overhead that looms large for short kernels
//     (Section 4.3: "the small size of the FFT reduces the amount of
//     software pipelining and increases start-up overheads");
//   - inter-cluster communication for parallel FFTs (Section 4.3:
//     "performance is reduced by 30% because inter-cluster communication
//     is used to perform parallel FFTs").
//
// Execution is an event timeline over three resources — the two memory
// controllers, the SRF ports, and the cluster array — with stream
// descriptors as a counted resource.
package imagine

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/sim"
	"sigkern/internal/sram"
)

// Config parameterizes the machine model.
type Config struct {
	Name     string
	ClockMHz float64
	// Clusters is the number of SIMD ALU clusters (8).
	Clusters int
	// AddersPerCluster, MulsPerCluster, DivsPerCluster give the ALU mix
	// (3, 2, 1).
	AddersPerCluster, MulsPerCluster, DivsPerCluster int
	// CommWordsPerCycle is each cluster's inter-cluster communication
	// bandwidth in words per cycle (1).
	CommWordsPerCycle int
	// MemControllers is the number of memory-stream controllers (2).
	MemControllers int
	// StreamDescRegs caps the number of in-flight streams (8).
	StreamDescRegs int
	// PipeDepth is the software-pipeline depth of kernel inner loops:
	// fill/drain costs PipeDepth iterations' worth of initiation
	// intervals per kernel invocation.
	PipeDepth int
	// KernelStartup is the fixed microcontroller dispatch cost per kernel
	// invocation.
	KernelStartup int
	// FullPipelining lifts the stream-descriptor-register limitation that
	// prevented the paper's corner turn from fully overlapping kernel
	// work with memory streams. False reproduces the measured chip.
	FullPipelining bool
	// SRF is the stream register file.
	SRF sram.Config
	// DRAM is the configuration of each memory channel.
	DRAM dram.Config
}

// DefaultConfig returns the model of the chip described in the paper.
func DefaultConfig() Config {
	return Config{
		Name:              "Imagine",
		ClockMHz:          300,
		Clusters:          8,
		AddersPerCluster:  3,
		MulsPerCluster:    2,
		DivsPerCluster:    1,
		CommWordsPerCycle: 1,
		MemControllers:    2,
		StreamDescRegs:    8,
		PipeDepth:         10,
		KernelStartup:     100,
		SRF:               sram.ImagineSRF(),
		DRAM:              dram.ImagineChannel(0),
	}
}

// Absolute bounds on a configuration, each at least twice the largest
// value a sweep, a test or the DSE axes use (16 clusters, 3 adders, 2
// memory controllers, 64 descriptor registers). Overrides arrive from
// the network.
const (
	maxClusters       = 64
	maxALUs           = 64
	maxMemControllers = 16
	maxStreamDescRegs = 256
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Clusters <= 0:
		return fmt.Errorf("imagine: %d clusters", c.Clusters)
	case c.AddersPerCluster <= 0 || c.MulsPerCluster <= 0 || c.DivsPerCluster < 0:
		return fmt.Errorf("imagine: ALU mix %d/%d/%d",
			c.AddersPerCluster, c.MulsPerCluster, c.DivsPerCluster)
	case c.CommWordsPerCycle <= 0:
		return fmt.Errorf("imagine: comm bandwidth %d", c.CommWordsPerCycle)
	case c.MemControllers <= 0:
		return fmt.Errorf("imagine: %d memory controllers", c.MemControllers)
	case c.StreamDescRegs < 2:
		return fmt.Errorf("imagine: %d stream descriptor registers", c.StreamDescRegs)
	case c.PipeDepth < 0 || c.KernelStartup < 0:
		return fmt.Errorf("imagine: negative pipeline parameters")
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{{"Clusters", c.Clusters, maxClusters}, {"AddersPerCluster", c.AddersPerCluster, maxALUs},
		{"MulsPerCluster", c.MulsPerCluster, maxALUs}, {"DivsPerCluster", c.DivsPerCluster, maxALUs},
		{"MemControllers", c.MemControllers, maxMemControllers}, {"StreamDescRegs", c.StreamDescRegs, maxStreamDescRegs}} {
		if f.v > f.max {
			return fmt.Errorf("imagine: %s %d above the %d limit", f.name, f.v, f.max)
		}
	}
	if err := c.SRF.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// KernelDesc describes one VLIW kernel invocation: the cluster array runs
// Iterations loop iterations, each consuming the listed per-cluster
// operation mix. Imagine processes Clusters elements per iteration.
type KernelDesc struct {
	Name string
	// Iterations is the number of software-pipelined loop iterations.
	Iterations int
	// AddsPerIter, MulsPerIter, DivsPerIter, CommPerIter give each
	// cluster's per-iteration operation counts.
	AddsPerIter, MulsPerIter, DivsPerIter, CommPerIter int
}

// Machine is one Imagine instance. It is not safe for concurrent use.
type Machine struct {
	cfg Config
	mcs []*dram.Controller
	srf *sram.Array

	mcFree      []uint64
	srfFree     uint64
	clusterFree uint64
	inflight    []uint64 // completion times of streams holding descriptors
	end         uint64

	// counters accumulate the current kernel run's events; finish turns
	// them into the Result's Breakdown and Stats.
	counters counters
}

// counters are the event counts of one kernel run. memBusy sums the
// memory streams' cycles over all controllers; kernelCycles is the
// cluster array's occupancy.
type counters struct {
	memBusy, descriptorStalls, memWords, srfWords uint64
	kernelInvocations, kernelCycles, clusterOps   uint64
}

// New returns a machine for cfg, panicking on invalid configuration.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, srf: sram.New(cfg.SRF)}
	for i := 0; i < cfg.MemControllers; i++ {
		d := cfg.DRAM
		d.Name = fmt.Sprintf("%s-mc%d", cfg.Name, i)
		m.mcs = append(m.mcs, dram.NewController(d))
	}
	m.reset()
	return m
}

// Name implements core.Machine.
func (m *Machine) Name() string { return m.cfg.Name }

// Params implements core.Machine with the paper's Table 2 row.
func (m *Machine) Params() core.Params {
	return core.Params{
		ClockMHz:    m.cfg.ClockMHz,
		ALUs:        48, // 8 clusters x 6 arithmetic units
		PeakGFLOPS:  14.4,
		Description: "stream processor, 128 KB SRF, 8 SIMD VLIW clusters",
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Reset implements core.Resettable: it rewinds every memory-controller
// timeline, the SRF/cluster availability clocks, and all accounting so
// the instance can be reused across jobs with bit-identical cycle
// counts. Every kernel entry point performs the same rewind on entry.
func (m *Machine) Reset() { m.reset() }

// reset rewinds all timelines between kernel runs.
func (m *Machine) reset() {
	for _, mc := range m.mcs {
		mc.Reset()
	}
	m.mcFree = make([]uint64, m.cfg.MemControllers)
	m.srfFree = 0
	m.clusterFree = 0
	m.inflight = nil
	m.end = 0
	m.counters = counters{}
}

// acquireDescriptor blocks until a stream descriptor register is free,
// returning the (possibly delayed) start time.
func (m *Machine) acquireDescriptor(t uint64) uint64 {
	if len(m.inflight) < m.cfg.StreamDescRegs {
		return t
	}
	// Wait for the earliest in-flight stream to complete.
	minIdx := 0
	for i, c := range m.inflight {
		if c < m.inflight[minIdx] {
			minIdx = i
		}
	}
	if m.inflight[minIdx] > t {
		m.counters.descriptorStalls += m.inflight[minIdx] - t
		t = m.inflight[minIdx]
	}
	m.inflight = append(m.inflight[:minIdx], m.inflight[minIdx+1:]...)
	return t
}

// memStream issues one DRAM<->SRF stream of words 32-bit words, starting
// no earlier than ready, and returns its completion time. Streams occupy
// one memory controller for their duration and hold a descriptor.
func (m *Machine) memStream(words int, stride int, write bool, ready uint64) uint64 {
	if words == 0 {
		return ready
	}
	t := m.acquireDescriptor(ready)
	// Pick the controller that frees first.
	mc := 0
	for i := range m.mcFree {
		if m.mcFree[i] < m.mcFree[mc] {
			mc = i
		}
	}
	start := t
	if m.mcFree[mc] > start {
		start = m.mcFree[mc]
	}
	ctl := m.mcs[mc]
	ctl.SyncTo(start)
	if stride == 0 {
		stride = 1
	}
	sr := ctl.Stream(dram.Request{Base: 0, Stride: stride, Count: words, Write: write})
	done := start + sr.Cycles
	m.mcFree[mc] = done
	m.inflight = append(m.inflight, done)
	m.counters.memBusy += sr.Cycles
	m.counters.memWords += uint64(words)
	m.noteEnd(done)
	return done
}

// srfStream accounts an SRF<->cluster transfer (16 words/cycle); these
// are far faster than memory streams but still occupy the SRF ports.
func (m *Machine) srfStream(words int, ready uint64) uint64 {
	if words == 0 {
		return ready
	}
	start := ready
	if m.srfFree > start {
		start = m.srfFree
	}
	dur := m.srf.TransferCycles(uint64(words))
	done := start + dur
	m.srfFree = done
	m.counters.srfWords += uint64(words)
	m.noteEnd(done)
	return done
}

// InitiationInterval returns the resource-constrained initiation interval
// of a kernel's inner loop on one cluster.
func (m *Machine) InitiationInterval(k KernelDesc) uint64 {
	ii := sim.CeilDiv(uint64(k.AddsPerIter), uint64(m.cfg.AddersPerCluster))
	if v := sim.CeilDiv(uint64(k.MulsPerIter), uint64(m.cfg.MulsPerCluster)); v > ii {
		ii = v
	}
	if k.DivsPerIter > 0 && m.cfg.DivsPerCluster > 0 {
		if v := sim.CeilDiv(uint64(k.DivsPerIter), uint64(m.cfg.DivsPerCluster)); v > ii {
			ii = v
		}
	}
	if v := sim.CeilDiv(uint64(k.CommPerIter), uint64(m.cfg.CommWordsPerCycle)); v > ii {
		ii = v
	}
	if ii == 0 {
		ii = 1
	}
	return ii
}

// kernelCycles returns the cluster-array occupancy of one invocation:
// (iterations + pipeline fill/drain) x II plus the dispatch cost.
func (m *Machine) kernelCycles(k KernelDesc) uint64 {
	ii := m.InitiationInterval(k)
	return uint64(k.Iterations+m.cfg.PipeDepth)*ii + uint64(m.cfg.KernelStartup)
}

// runKernel schedules one kernel invocation after its inputs are ready
// and returns its completion time.
func (m *Machine) runKernel(k KernelDesc, ready uint64) uint64 {
	start := ready
	if m.clusterFree > start {
		start = m.clusterFree
	}
	dur := m.kernelCycles(k)
	done := start + dur
	m.clusterFree = done
	m.counters.kernelInvocations++
	m.counters.kernelCycles += dur
	m.counters.clusterOps += uint64(k.Iterations) * uint64(k.AddsPerIter+k.MulsPerIter+k.DivsPerIter) * uint64(m.cfg.Clusters)
	m.noteEnd(done)
	return done
}

func (m *Machine) noteEnd(t uint64) {
	if t > m.end {
		m.end = t
	}
}

// finish assembles a core.Result from the timeline state. Memory and
// compute busy cycles overlap in reality; the residual "other" category
// is whatever the critical path spent outside the busier resource.
func (m *Machine) finish(kernel core.KernelID, ops, words uint64) core.Result {
	total := m.end
	// Normalize the memory category to per-controller occupancy so its
	// fraction of the total is meaningful.
	memBusy := m.counters.memBusy / uint64(m.cfg.MemControllers)
	b := sim.Breakdown{}
	b.Add("memory", memBusy)
	b.Add("compute", m.counters.kernelCycles)
	if busiest := max64(memBusy, m.counters.kernelCycles); total > busiest {
		b.Add("other", total-busiest)
	}
	var st sim.Stats
	st.Inc("descriptor_stalls", m.counters.descriptorStalls)
	st.Inc("mem_words", m.counters.memWords)
	st.Inc("srf_words", m.counters.srfWords)
	st.Inc("kernel_invocations", m.counters.kernelInvocations)
	st.Inc("kernel_cycles", m.counters.kernelCycles)
	st.Inc("cluster_ops", m.counters.clusterOps)
	return core.Result{
		Machine:   m.cfg.Name,
		Kernel:    kernel,
		Cycles:    total,
		Breakdown: b,
		Stats:     st,
		Ops:       ops,
		Words:     words,
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
