// Package viram models the Berkeley VIRAM processor-in-memory chip: a
// vector unit fused with on-chip DRAM. The model captures the properties
// the paper's analysis turns on:
//
//   - a 256-bit datapath to DRAM: 8 sequential 32-bit words per cycle,
//     but only 4 address generators, so strided and indexed accesses run
//     at half rate (Section 4.2: "24% are due to a limitation in strided
//     load performance imposed by the number of address generators");
//   - two vector arithmetic units of which only ALU0 executes vector
//     floating point (Section 4.3: "performance on the FFT is reduced by
//     a factor of 1.52");
//   - banked on-chip DRAM with visible precharge on strided streams and
//     a TLB (Section 4.2: "21% of the total cycles are overhead due to
//     DRAM pre-charge cycles ... and TLB misses");
//   - vector startup and chaining latency (Section 4.4: "waiting for the
//     results from previous vector operations").
//
// Execution is an in-order, one-instruction-per-cycle issue scoreboard
// with chaining: a dependent vector instruction may begin once the
// producer's first elements emerge (producer start + startup latency).
// Kernel implementations generate real vector instruction streams whose
// counts derive from the same loop structures as the functional kernels.
// As on the chip, where the scalar core feeds the vector unit through a
// short instruction queue, each instruction issues to the scoreboard as
// the kernel emits it: no run holds its whole program, only the one
// software-pipelined butterfly it is building and the previous one's
// stores.
package viram

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/sim"
)

// Op is a vector (or scalar bookkeeping) operation.
type Op int

// The VIRAM vector ISA subset used by the kernels.
const (
	// VLoad is a unit-stride vector load.
	VLoad Op = iota
	// VLoadStride is a strided vector load (address-generator limited).
	VLoadStride
	// VStore is a unit-stride vector store.
	VStore
	// VStoreStride is a strided vector store.
	VStoreStride
	// VAddF and VMulF are vector single-precision FP add/multiply
	// (ALU0 only).
	VAddF
	VMulF
	// VFMA is a fused multiply-add (ALU0 only, counts two flops).
	VFMA
	// VAddI and VShift are vector integer ops (either ALU).
	VAddI
	VShift
	// VPerm is an element shuffle (ALU0 only in this implementation, as
	// in the chip: "some operations are allowed to execute on ALU0 only").
	VPerm
	// Scalar is scalar-core bookkeeping (loop control, address setup)
	// with an explicit cycle cost.
	Scalar
)

// Inst is one instruction of a kernel's vector program.
type Inst struct {
	Op Op
	// VL is the vector length in 32-bit elements.
	VL int
	// Base and Stride give word addresses for memory operations.
	Base, Stride int
	// Dst, Src1, Src2 are vector register numbers; -1 means none (or a
	// scalar operand).
	Dst, Src1, Src2 int
	// Cost is the cycle cost of a Scalar op.
	Cost int
}

// Config parameterizes the machine model.
type Config struct {
	Name     string
	ClockMHz float64
	// Lanes is the 32-bit element throughput per cycle of an integer
	// vector unit (8: the 256-bit datapath).
	Lanes int
	// FPLanes is the per-cycle FP element throughput of ALU0, the only
	// unit that executes vector FP (8 lanes; the asymmetry costs the FFT
	// a factor of ~1.5 versus a hypothetical dual-FP-unit chip).
	FPLanes int
	// MVL is the maximum vector length in 32-bit elements (the 8 KB
	// register file holds 32 registers of 64 elements).
	MVL int
	// VRegs is the architectural vector register count.
	VRegs int
	// StartupALU and StartupMem are the pipeline-fill latencies before a
	// dependent instruction can chain.
	StartupALU, StartupMem int
	// IssueQueue is the depth of the vector instruction queue between the
	// scalar core and the vector unit: dispatch runs ahead of execution
	// by at most this many instructions, which is what lets memory and
	// arithmetic instructions overlap despite in-order dispatch.
	IssueQueue int
	// PadWords is the row padding applied to the corner-turn matrix to
	// avoid DRAM bank conflicts (the paper: "strided load operations
	// with padding added to the matrix rows").
	PadWords int
	// TLBEntries, TLBPageBytes and TLBMissPenalty model the address
	// translation overhead visible on large strided walks.
	TLBEntries, TLBPageBytes int
	TLBMissPenalty           uint64
	// DRAM is the on-chip DRAM configuration.
	DRAM dram.Config
}

// DefaultConfig returns the model of the chip described in the paper.
func DefaultConfig() Config {
	return Config{
		Name:       "VIRAM",
		ClockMHz:   200,
		Lanes:      8,
		FPLanes:    8,
		MVL:        64,
		VRegs:      32,
		StartupALU: 8,
		StartupMem: 10,
		IssueQueue: 8,
		PadWords:   8,
		TLBEntries: 48, TLBPageBytes: 64 << 10, TLBMissPenalty: 2,
		DRAM: dram.VIRAMDRAM(),
	}
}

// Absolute bounds on a configuration, each at least twice the largest
// value a sweep, a golden config or the DSE axes use (16 lanes, MVL 256,
// the paper's 32 registers, 8-deep queue, 48 entries and 64 KiB pages).
// Overrides arrive from the network.
const (
	maxLanes        = 64
	maxMVL          = 1024
	maxVRegs        = 256
	maxIssueQueue   = 256
	maxTLBEntries   = 4096
	maxTLBPageBytes = 1 << 24
)

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Lanes <= 0 || c.FPLanes <= 0 || c.FPLanes > c.Lanes:
		return fmt.Errorf("viram: Lanes %d / FPLanes %d", c.Lanes, c.FPLanes)
	case c.Lanes > maxLanes:
		return fmt.Errorf("viram: Lanes %d above the %d limit", c.Lanes, maxLanes)
	case c.MVL <= 0 || c.VRegs <= 0:
		return fmt.Errorf("viram: MVL %d / VRegs %d", c.MVL, c.VRegs)
	case c.MVL > maxMVL:
		return fmt.Errorf("viram: MVL %d above the %d limit", c.MVL, maxMVL)
	case c.VRegs > maxVRegs:
		return fmt.Errorf("viram: VRegs %d above the %d limit", c.VRegs, maxVRegs)
	case c.StartupALU < 0 || c.StartupMem < 0:
		return fmt.Errorf("viram: negative startup")
	case c.IssueQueue <= 0:
		return fmt.Errorf("viram: IssueQueue %d", c.IssueQueue)
	case c.IssueQueue > maxIssueQueue:
		return fmt.Errorf("viram: IssueQueue %d above the %d limit", c.IssueQueue, maxIssueQueue)
	case c.TLBEntries <= 0:
		return fmt.Errorf("viram: TLBEntries %d must be positive", c.TLBEntries)
	case c.TLBEntries > maxTLBEntries:
		return fmt.Errorf("viram: TLBEntries %d above the %d limit", c.TLBEntries, maxTLBEntries)
	case c.TLBPageBytes < 4:
		// A page must hold at least one 32-bit word.
		return fmt.Errorf("viram: TLBPageBytes %d below one 4-byte word", c.TLBPageBytes)
	case c.TLBPageBytes > maxTLBPageBytes:
		return fmt.Errorf("viram: TLBPageBytes %d above the %d limit", c.TLBPageBytes, maxTLBPageBytes)
	}
	return c.DRAM.Validate()
}

// TraceEntry records one instruction's scheduling outcome when a tracer
// is attached: dispatch and start cycles, executing unit, and duration.
type TraceEntry struct {
	Index    int
	Op       Op
	VL       int
	Unit     string
	Dispatch uint64
	Start    uint64
	Duration uint64
}

// Machine is one VIRAM instance. It is not safe for concurrent use.
type Machine struct {
	cfg    Config
	mem    *dram.Controller
	tlb    *tlb
	heap   int // bump allocator for kernel address spaces (words)
	tracer func(TraceEntry)
	sb     scoreboard
	// pipe holds the butterfly pipeline's few instructions; its buffers
	// keep their capacity between runs.
	pipe pipeline
	// cfgKey is the SHA-256 of cfg's JSON, set at the first segment;
	// key is the buffer segment keys are built in.
	cfgKey string
	key    []byte
}

// SetTracer attaches a per-instruction trace callback (nil detaches).
// Tracing does not perturb timing.
func (m *Machine) SetTracer(fn func(TraceEntry)) { m.tracer = fn }

// unitNames maps scoreboard units to display names for traces.
var unitNames = [...]string{"VMU", "VALU0", "VALU1", "SCALAR"}

// OpName returns a mnemonic for an opcode.
func OpName(op Op) string {
	names := map[Op]string{
		VLoad: "vld", VLoadStride: "vlds", VStore: "vst", VStoreStride: "vsts",
		VAddF: "vaddf", VMulF: "vmulf", VFMA: "vfma", VAddI: "vaddi",
		VShift: "vsh", VPerm: "vperm", Scalar: "scalar",
	}
	if n, ok := names[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", int(op))
}

// New returns a machine for cfg, panicking on invalid configuration.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{
		cfg: cfg,
		mem: dram.NewController(cfg.DRAM),
		tlb: newTLB(cfg.TLBEntries, cfg.TLBPageBytes),
		sb: scoreboard{
			chainReady: make([]uint64, cfg.VRegs),
			starts:     make([]uint64, cfg.IssueQueue),
		},
	}
}

// Name implements core.Machine.
func (m *Machine) Name() string { return m.cfg.Name }

// Params implements core.Machine with the paper's Table 2 row.
func (m *Machine) Params() core.Params {
	return core.Params{
		ClockMHz:    m.cfg.ClockMHz,
		ALUs:        16, // two vector units x eight 32-bit lanes
		PeakGFLOPS:  3.2,
		Description: "processor-in-memory vector chip, 13 MB on-chip DRAM",
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Reset implements core.Resettable: it rewinds all simulation state so
// the instance can be reused across jobs with bit-identical cycle
// counts. Every kernel entry point performs the same rewind, so this is
// a public contract over the existing mechanism, not a new one. A run
// issues its program as it emits it, so what an instance keeps between
// runs is its DRAM, TLB and scoreboard state and the butterfly
// pipeline's few instructions, none of them sized by the program.
func (m *Machine) Reset() { m.reset() }

// reset rewinds simulation state between kernel runs.
func (m *Machine) reset() {
	m.mem.Reset()
	m.tlb.reset()
	m.sb.reset()
	m.heap = 0
}

// alloc reserves words of the on-chip DRAM address space (word address).
// A kernel allocates everything before its first instruction issues, so
// that checkAddressRange checks every access against the run's whole
// heap; alloc panics after that.
func (m *Machine) alloc(words int) int {
	if m.sb.issued > 0 {
		panic("viram: alloc after the first instruction issued")
	}
	base := m.heap
	m.heap += words
	// Round to a DRAM row so arrays do not share open-row state.
	row := m.cfg.DRAM.RowWords
	m.heap = (m.heap + row - 1) / row * row
	return base
}

// ExecResult is the timing outcome of one vector program.
type ExecResult struct {
	Cycles    uint64
	Breakdown sim.Breakdown
	Stats     sim.Stats
}

// The scoreboard's units: the memory unit, the two arithmetic units and
// the scalar core.
const (
	unitMem = iota
	unitALU0
	unitALU1
	unitScalar
	numUnits
)

// scoreboard is the issue state of the program a kernel is emitting.
// Events are counted in its fields and reported as a Stats and a
// Breakdown by result; the Breakdown's memory, compute and scalar
// categories are the busy cycles of the units that execute them.
type scoreboard struct {
	unitFree   [numUnits]uint64
	chainReady []uint64 // per vector register: when a consumer may chain
	// starts holds the execution-start cycles of the last IssueQueue
	// instructions, a ring whose oldest entry is starts[slot]: dispatch
	// may run ahead of execution by at most the queue depth.
	starts   []uint64
	slot     int
	dispatch uint64
	end      uint64
	eventCounts
}

// eventCounts are the scoreboard's additive event counts.
type eventCounts struct {
	issued                                      uint64
	stallQueue, stallUnit, stallDep             uint64
	tlbMisses, rowMisses, conflictStalls, words uint64
	flops, intops                               uint64
	busy                                        [numUnits]uint64
}

// sub returns the counts c holds beyond earlier, field by field.
func (c eventCounts) sub(earlier eventCounts) eventCounts {
	d := eventCounts{
		issued:         c.issued - earlier.issued,
		stallQueue:     c.stallQueue - earlier.stallQueue,
		stallUnit:      c.stallUnit - earlier.stallUnit,
		stallDep:       c.stallDep - earlier.stallDep,
		tlbMisses:      c.tlbMisses - earlier.tlbMisses,
		rowMisses:      c.rowMisses - earlier.rowMisses,
		conflictStalls: c.conflictStalls - earlier.conflictStalls,
		words:          c.words - earlier.words,
		flops:          c.flops - earlier.flops,
		intops:         c.intops - earlier.intops,
	}
	for u := range d.busy {
		d.busy[u] = c.busy[u] - earlier.busy[u]
	}
	return d
}

// add adds d to c, field by field.
func (c *eventCounts) add(d eventCounts) {
	c.issued += d.issued
	c.stallQueue += d.stallQueue
	c.stallUnit += d.stallUnit
	c.stallDep += d.stallDep
	c.tlbMisses += d.tlbMisses
	c.rowMisses += d.rowMisses
	c.conflictStalls += d.conflictStalls
	c.words += d.words
	c.flops += d.flops
	c.intops += d.intops
	for u := range c.busy {
		c.busy[u] += d.busy[u]
	}
}

// reset empties the scoreboard for a new program.
func (s *scoreboard) reset() {
	chainReady, starts := s.chainReady, s.starts
	clear(chainReady)
	clear(starts)
	*s = scoreboard{chainReady: chainReady, starts: starts}
}

// issue runs one instruction through the scoreboard. Chaining lets a
// consumer start `startup` cycles after its producer.
func (m *Machine) issue(in *Inst) {
	s := &m.sb
	if in.VL > m.cfg.MVL {
		panic(fmt.Sprintf("viram: VL %d exceeds MVL %d", in.VL, m.cfg.MVL))
	}
	// Select the executing unit.
	var unit int
	var dur, startup uint64
	switch in.Op {
	case VLoad, VStore, VLoadStride, VStoreStride:
		unit = unitMem
		startup = uint64(m.cfg.StartupMem)
	case VAddF, VMulF, VFMA, VPerm:
		unit = unitALU0
		startup = uint64(m.cfg.StartupALU)
	case VAddI, VShift:
		// Integer ops run on whichever ALU frees first.
		unit = unitALU0
		if s.unitFree[unitALU1] < s.unitFree[unitALU0] {
			unit = unitALU1
		}
		startup = uint64(m.cfg.StartupALU)
	case Scalar:
		unit = unitScalar
		startup = 0
	default:
		panic(fmt.Sprintf("viram: unknown op %d", in.Op))
	}

	// Dispatch: program order, one instruction per cycle, bounded by the
	// queue depth (an instruction cannot dispatch until the one
	// IssueQueue slots ahead of it has started executing; the ring holds
	// zeros while the queue fills).
	if s.issued > 0 {
		s.dispatch++
	}
	if ahead := s.starts[s.slot]; ahead > s.dispatch {
		s.stallQueue += ahead - s.dispatch
		s.dispatch = ahead
	}
	// Execution start: unit availability and chaining.
	t := s.dispatch
	tUnit := t
	if s.unitFree[unit] > tUnit {
		tUnit = s.unitFree[unit]
	}
	s.stallUnit += tUnit - t
	tDep := tUnit
	if in.Src1 >= 0 && s.chainReady[in.Src1] > tDep {
		tDep = s.chainReady[in.Src1]
	}
	if in.Src2 >= 0 && s.chainReady[in.Src2] > tDep {
		tDep = s.chainReady[in.Src2]
	}
	s.stallDep += tDep - tUnit
	t = tDep
	s.starts[s.slot] = t
	if s.slot++; s.slot == len(s.starts) {
		s.slot = 0
	}

	// Duration.
	switch in.Op {
	case VLoad, VStore, VLoadStride, VStoreStride:
		m.checkAddressRange(in)
		m.mem.SyncTo(t)
		req := dram.Request{Base: in.Base, Stride: in.Stride, Count: in.VL,
			Write: in.Op == VStore || in.Op == VStoreStride}
		if req.Stride == 0 {
			req.Stride = 1
		}
		sr := m.mem.Stream(req)
		misses := m.tlb.touch(in.Base, req.Stride, in.VL)
		dur = sr.Cycles + misses*m.cfg.TLBMissPenalty
		s.tlbMisses += misses
		s.rowMisses += sr.RowMisses
		s.conflictStalls += sr.ConflictStalls
		s.words += sr.Words
	case VAddF, VMulF, VPerm:
		dur = sim.CeilDiv(uint64(in.VL), uint64(m.cfg.FPLanes))
		if in.Op != VPerm {
			s.flops += uint64(in.VL)
		}
	case VFMA:
		dur = sim.CeilDiv(uint64(in.VL), uint64(m.cfg.FPLanes))
		s.flops += 2 * uint64(in.VL)
	case VAddI, VShift:
		dur = sim.CeilDiv(uint64(in.VL), uint64(m.cfg.Lanes))
		s.intops += uint64(in.VL)
	case Scalar:
		dur = uint64(in.Cost)
	}

	if m.tracer != nil {
		m.tracer(TraceEntry{
			Index: int(s.issued), Op: in.Op, VL: in.VL, Unit: unitNames[unit],
			Dispatch: s.dispatch, Start: t, Duration: dur,
		})
	}
	s.issued++
	s.unitFree[unit] = t + dur
	s.busy[unit] += dur
	if in.Dst >= 0 {
		if in.Dst >= m.cfg.VRegs {
			panic(fmt.Sprintf("viram: register v%d out of range", in.Dst))
		}
		s.chainReady[in.Dst] = t + startup
	}
	if done := t + startup + dur; done > s.end {
		s.end = done
	}
}

// result reports the program issued since the last reset.
func (m *Machine) result() ExecResult {
	s := &m.sb
	res := ExecResult{Cycles: s.end}
	res.Stats.Inc("instructions", s.issued)
	res.Stats.Inc("stall_queue", s.stallQueue)
	res.Stats.Inc("stall_unit", s.stallUnit)
	res.Stats.Inc("stall_dep", s.stallDep)
	res.Stats.Inc("tlb_misses", s.tlbMisses)
	res.Stats.Inc("dram_row_misses", s.rowMisses)
	res.Stats.Inc("dram_conflict_stalls", s.conflictStalls)
	res.Stats.Inc("mem_words", s.words)
	res.Stats.Inc("flops", s.flops)
	res.Stats.Inc("intops", s.intops)
	res.Stats.Inc("mem_unit_busy", s.busy[unitMem])
	res.Stats.Inc("alu0_busy", s.busy[unitALU0])
	res.Stats.Inc("alu1_busy", s.busy[unitALU1])
	compute := s.busy[unitALU0] + s.busy[unitALU1]
	if s.busy[unitMem] > 0 {
		res.Breakdown.Add("memory", s.busy[unitMem])
	}
	if compute > 0 {
		res.Breakdown.Add("compute", compute)
	}
	if s.busy[unitScalar] > 0 {
		res.Breakdown.Add("scalar", s.busy[unitScalar])
	}
	if s.end > s.busy[unitMem] {
		// Cycles no unit category accounts for are startup and waiting.
		var wait uint64
		if slack, accounted := s.end-s.busy[unitMem], compute+s.busy[unitScalar]; slack > accounted {
			wait = slack - accounted
		}
		res.Breakdown.Add("startup+wait", wait)
	}
	return res
}

// checkAddressRange panics when a kernel program touches memory outside
// what the machine allocated — the assertion that catches program-
// generator bugs before they become silent mis-timings. Programs run
// directly against a machine with no allocations (unit tests) skip it.
func (m *Machine) checkAddressRange(in *Inst) {
	if m.heap == 0 {
		return
	}
	if in.Base < 0 {
		panic(fmt.Sprintf("viram: negative address %d", in.Base))
	}
	stride := in.Stride
	if stride == 0 {
		stride = 1
	}
	last := in.Base + (in.VL-1)*stride
	hi := in.Base
	if last > hi {
		hi = last
	}
	if hi >= m.heap {
		panic(fmt.Sprintf("viram: access at word %d beyond allocated heap %d", hi, m.heap))
	}
}

// tlb is a small fully-associative LRU translation buffer. index maps
// a resident page to its slot, and the slots form a doubly linked list
// in recency order, so a hit, a miss and an eviction each cost O(1).
type tlb struct {
	pageWords  int
	slots      []tlbSlot
	used       int // slots filled since the last reset
	index      map[int]int32
	head, tail int32 // most and least recently used slot; -1 when empty
}

type tlbSlot struct {
	page       int
	prev, next int32
}

func newTLB(entries, pageBytes int) *tlb {
	t := &tlb{
		pageWords: pageBytes / 4,
		slots:     make([]tlbSlot, entries),
		index:     make(map[int]int32, entries),
	}
	t.reset()
	return t
}

func (t *tlb) reset() {
	clear(t.index)
	t.used = 0
	t.head, t.tail = -1, -1
}

// touch visits the pages of a strided access and returns the miss count.
// An ascending access at a non-negative address visits each of its pages
// once, in order, at one division per page crossing; any other access
// walks word by word.
func (t *tlb) touch(base, stride, count int) uint64 {
	if count <= 0 {
		return 0
	}
	if stride <= 0 || base < 0 {
		return t.touchWords(base, stride, count)
	}
	pw := t.pageWords
	last := base + (count-1)*stride
	addr, page := base, base/pw
	var misses uint64
	for {
		misses += t.visit(page)
		next := (page + 1) * pw // first word of the next page
		if next > last {
			return misses
		}
		if stride < pw {
			// The first element at or past next is less than a stride,
			// so less than a page, beyond it.
			addr += (next - addr + stride - 1) / stride * stride
			page++
		} else {
			addr += stride
			page = addr / pw
		}
	}
}

// touchWords is touch for descending or negative accesses: it visits
// the page of every word, skipping repeats of the previous page.
func (t *tlb) touchWords(base, stride, count int) uint64 {
	var misses uint64
	last := -1
	for i := 0; i < count; i++ {
		page := (base + i*stride) / t.pageWords
		if page == last {
			continue
		}
		last = page
		misses += t.visit(page)
	}
	return misses
}

// visit looks up one page, making it the most recently used, and
// returns 1 on a miss.
func (t *tlb) visit(page int) uint64 {
	if t.head >= 0 && t.slots[t.head].page == page {
		return 0
	}
	if s, ok := t.index[page]; ok {
		t.unlink(s)
		t.pushFront(s)
		return 0
	}
	var s int32
	if t.used < len(t.slots) {
		s = int32(t.used)
		t.used++
	} else {
		// Evict the least recently used page.
		s = t.tail
		delete(t.index, t.slots[s].page)
		t.unlink(s)
	}
	t.slots[s].page = page
	t.index[page] = s
	t.pushFront(s)
	return 1
}

// unlink removes slot s from the recency list.
func (t *tlb) unlink(s int32) {
	sl := &t.slots[s]
	if sl.prev >= 0 {
		t.slots[sl.prev].next = sl.next
	} else {
		t.head = sl.next
	}
	if sl.next >= 0 {
		t.slots[sl.next].prev = sl.prev
	} else {
		t.tail = sl.prev
	}
}

// pushBack fills the next free slot with page as the least recently
// used, rebuilding a recency list most recent first.
func (t *tlb) pushBack(page int) {
	s := int32(t.used)
	t.used++
	t.slots[s] = tlbSlot{page: page, prev: t.tail, next: -1}
	if t.tail >= 0 {
		t.slots[t.tail].next = s
	} else {
		t.head = s
	}
	t.tail = s
	t.index[page] = s
}

// pushFront makes slot s the most recently used.
func (t *tlb) pushFront(s int32) {
	t.slots[s].prev, t.slots[s].next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
}
