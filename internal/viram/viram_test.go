package viram

import (
	"runtime"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/sim"
)

var _ core.Machine = (*Machine)(nil)

// exec issues prog on an empty scoreboard and returns its result. The
// DRAM and TLB state carry over from earlier programs, as they do
// between the instructions of one.
func (m *Machine) exec(prog []Inst) ExecResult {
	m.sb.reset()
	for i := range prog {
		m.issue(&prog[i])
	}
	return m.result()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Lanes = 0 },
		func(c *Config) { c.FPLanes = 0 },
		func(c *Config) { c.FPLanes = c.Lanes + 1 },
		func(c *Config) { c.MVL = 0 },
		func(c *Config) { c.StartupALU = -1 },
		func(c *Config) { c.TLBEntries = 0 },
		func(c *Config) { c.TLBPageBytes = 2 },
		func(c *Config) { c.Lanes = maxLanes + 1 },
		func(c *Config) { c.MVL = maxMVL + 1 },
		func(c *Config) { c.VRegs = maxVRegs + 1 },
		func(c *Config) { c.IssueQueue = maxIssueQueue + 1 },
		func(c *Config) { c.TLBEntries = maxTLBEntries + 1 },
		func(c *Config) { c.TLBPageBytes = maxTLBPageBytes + 4 },
		func(c *Config) { c.DRAM.Banks = 0 },
		func(c *Config) { c.DRAM.InterleaveWords = -8 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestExecChainingSerializesDependents(t *testing.T) {
	m := New(DefaultConfig())
	// A short dependent integer chain: with VL=8 each op occupies its ALU
	// for a single cycle, so chain startup dominates. Independent ops
	// spread over both integer ALUs; dependent ones wait for chaining.
	var indep, dep []Inst
	for i := 0; i < 8; i++ {
		indep = append(indep, Inst{Op: VAddI, VL: 8, Dst: i + 1, Src1: -1, Src2: -1})
		dep = append(dep, Inst{Op: VAddI, VL: 8, Dst: i + 1, Src1: i, Src2: -1})
	}
	rIndep := m.exec(indep)
	rDep := m.exec(dep)
	if rDep.Cycles <= rIndep.Cycles {
		t.Fatalf("dependent chain (%d) not slower than independent ops (%d)",
			rDep.Cycles, rIndep.Cycles)
	}
	// The gap must be roughly one startup per dependence edge.
	if rDep.Cycles < rIndep.Cycles+7*uint64(m.cfg.StartupALU)/2 {
		t.Fatalf("chain gap too small: dep %d vs indep %d", rDep.Cycles, rIndep.Cycles)
	}
}

func TestExecLoadToUseChaining(t *testing.T) {
	m := New(DefaultConfig())
	load := Inst{Op: VLoad, VL: 64, Base: 0, Stride: 1, Dst: 1, Src1: -1, Src2: -1}
	useDep := Inst{Op: VAddF, VL: 64, Dst: 2, Src1: 1, Src2: -1}
	useIndep := Inst{Op: VAddF, VL: 64, Dst: 2, Src1: -1, Src2: -1}
	rDep := m.exec([]Inst{load, useDep})
	m.reset()
	rIndep := m.exec([]Inst{load, useIndep})
	if rDep.Cycles <= rIndep.Cycles {
		t.Fatalf("load-to-use chain (%d) not slower than independent (%d)",
			rDep.Cycles, rIndep.Cycles)
	}
}

func TestExecIntOpsUseBothALUs(t *testing.T) {
	m := New(DefaultConfig())
	vl := 64
	var fp, in []Inst
	for i := 0; i < 16; i++ {
		fp = append(fp, Inst{Op: VAddF, VL: vl, Dst: 1, Src1: -1, Src2: -1})
		in = append(in, Inst{Op: VAddI, VL: vl, Dst: 1, Src1: -1, Src2: -1})
	}
	rf := m.exec(fp)
	ri := m.exec(in)
	// Integer ops spread over both ALUs while FP is confined to ALU0, so
	// the integer stream must run close to twice as fast.
	if ri.Cycles*3 > rf.Cycles*2 || ri.Cycles >= rf.Cycles {
		t.Fatalf("int/FP stream ratio off: int %d vs fp %d, want ~2x faster", ri.Cycles, rf.Cycles)
	}
}

func TestExecVLExceedsMVLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VL > MVL did not panic")
		}
	}()
	m := New(DefaultConfig())
	m.exec([]Inst{{Op: VAddF, VL: 65, Dst: 0, Src1: -1, Src2: -1}})
}

func TestExecRegisterRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range register did not panic")
		}
	}()
	m := New(DefaultConfig())
	m.exec([]Inst{{Op: VAddF, VL: 8, Dst: 40, Src1: -1, Src2: -1}})
}

func TestTLBMissesOnLargeWalk(t *testing.T) {
	tl := newTLB(4, 8<<10) // 4 entries, 8 KB pages = 2K words
	// First walk: 8 distinct pages, all miss.
	if got := tl.touch(0, 2048, 8); got != 8 {
		t.Fatalf("cold walk misses = %d, want 8", got)
	}
	// Immediate rewalk of the last 4 pages: all hit.
	if got := tl.touch(4*2048, 2048, 4); got != 0 {
		t.Fatalf("warm walk misses = %d, want 0", got)
	}
	// Unit-stride walk within one page: at most one miss.
	tl.reset()
	if got := tl.touch(0, 1, 64); got != 1 {
		t.Fatalf("unit walk misses = %d, want 1", got)
	}
}

// TestTLBEvictsLeastRecentlyUsed separates LRU from FIFO replacement:
// re-touching page 0 must protect it, so page 4 evicts page 1.
func TestTLBEvictsLeastRecentlyUsed(t *testing.T) {
	const page = 2048 // words in an 8 KB page
	tl := newTLB(4, 8<<10)
	steps := []struct {
		first, pages int
		misses       uint64
	}{
		{0, 4, 4}, // pages 0-3 fill the TLB
		{0, 1, 0}, // page 0 becomes most recently used
		{4, 1, 1}, // page 4 evicts page 1, the least recently used
		{0, 1, 0}, // page 0 survived
		{1, 1, 1}, // page 1 did not
	}
	for i, st := range steps {
		if got := tl.touch(st.first*page, page, st.pages); got != st.misses {
			t.Fatalf("step %d (pages %d..%d): %d misses, want %d",
				i, st.first, st.first+st.pages-1, got, st.misses)
		}
	}
}

// mapScanTLB is the original TLB: a page -> last-use map whose victim
// is found by scanning every entry. It is the oracle the O(1) TLB must
// match miss for miss.
type mapScanTLB struct {
	entries   int
	pageWords int
	pages     map[int]uint64
	tick      uint64
}

func (t *mapScanTLB) touch(base, stride, count int) uint64 {
	var misses uint64
	last := -1
	for i := 0; i < count; i++ {
		page := (base + i*stride) / t.pageWords
		if page == last {
			continue
		}
		last = page
		t.tick++
		if _, ok := t.pages[page]; ok {
			t.pages[page] = t.tick
			continue
		}
		misses++
		if len(t.pages) >= t.entries {
			var victim int
			var oldest uint64 = ^uint64(0)
			for p, when := range t.pages {
				if when < oldest {
					oldest = when
					victim = p
				}
			}
			delete(t.pages, victim)
		}
		t.pages[page] = t.tick
	}
	return misses
}

// TestTLBMatchesMapScanOracle drives the TLB and the oracle through the
// same seeded random strided walks and requires equal miss counts after
// every call, across entry counts and page sizes, with a reset of both
// every 250 calls.
func TestTLBMatchesMapScanOracle(t *testing.T) {
	rng := sim.NewPRNG(14)
	for _, entries := range []int{1, 2, 3, 8, 48} {
		for _, pageBytes := range []int{4, 12, 20, 64, 8 << 10, 64 << 10} {
			tl := newTLB(entries, pageBytes)
			var oracle *mapScanTLB
			// The address space spans a few times more pages than the
			// TLB holds, so walks mix hits, cold misses and evictions.
			span := 4 * entries * pageBytes / 4
			for call := 0; call < 1000; call++ {
				if call%250 == 0 {
					tl.reset()
					oracle = &mapScanTLB{entries: entries, pageWords: pageBytes / 4, pages: map[int]uint64{}}
				}
				base := rng.Intn(span)
				stride := 1 + rng.Intn(3*pageBytes/4+1)
				if rng.Intn(4) == 0 {
					stride = -stride
				}
				count := 1 + rng.Intn(256)
				got, want := tl.touch(base, stride, count), oracle.touch(base, stride, count)
				if got != want {
					t.Fatalf("entries %d, %d-byte pages, call %d (base %d stride %d count %d): %d misses, oracle %d",
						entries, pageBytes, call, base, stride, count, got, want)
				}
			}
		}
	}
}

// TestAllocAfterIssuePanics pins the rule that keeps checkAddressRange
// sound for a program issued as it is emitted: the heap is final before
// the first instruction issues.
func TestAllocAfterIssuePanics(t *testing.T) {
	m := New(DefaultConfig())
	m.reset()
	base := m.alloc(1024)
	m.newProg().load(64, base, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("alloc after an issued instruction did not panic")
		}
	}()
	m.alloc(64)
}

// TestUsedInstanceRetainsLittle runs the paper CSLC, then the paper
// corner turn, on eight instances and measures the heap they keep once
// the runs are over. A caller may keep an instance across runs
// (core.RunStudy, a benchmark loop), so it must not keep anything sized
// by the program it last ran. A first run on a throwaway instance fills the
// golden-reference memos, which are process-wide, outside the
// measurement.
func TestUsedInstanceRetainsLittle(t *testing.T) {
	const instances, limit = 8, 64 << 10
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kernels := []struct {
		name string
		run  func(*Machine) (core.Result, error)
	}{
		{"paper CSLC", func(m *Machine) (core.Result, error) { return m.RunCSLC(cslc.PaperSpec(fft.MixedRadix42)) }},
		{"paper corner turn", func(m *Machine) (core.Result, error) { return m.RunCornerTurn(cornerturn.PaperSpec()) }},
	}
	for _, k := range kernels {
		if _, err := k.run(New(DefaultConfig())); err != nil {
			t.Fatal(err)
		}
		before := heap()
		ms := make([]*Machine, instances)
		for i := range ms {
			ms[i] = New(DefaultConfig())
			if _, err := k.run(ms[i]); err != nil {
				t.Fatal(err)
			}
		}
		after := heap()
		runtime.KeepAlive(ms)
		var per int64
		if after > before {
			per = int64(after-before) / instances
		}
		t.Logf("%s: %.1f KiB retained per used instance", k.name, float64(per)/1024)
		if per > limit {
			t.Errorf("%s: a used instance retains %.1f KiB, want at most %d KiB", k.name, float64(per)/1024, limit>>10)
		}
	}
}

func TestCornerTurnCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := core.Run(m, core.CornerTurn, core.Workload{CornerTurn: cornerturn.PaperSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatal("result not verified")
	}
	// Paper: 554k cycles. The model must land in the same regime and
	// above the 262k-cycle peak-bandwidth bound.
	if r.Cycles < 300_000 || r.Cycles > 900_000 {
		t.Fatalf("corner turn cycles = %d, want ~554k (300k-900k band)", r.Cycles)
	}
	// Memory must dominate: this kernel measures bandwidth.
	if f := r.Breakdown.Fraction("memory"); f < 0.5 {
		t.Fatalf("memory fraction = %.2f, want > 0.5 (%s)", f, r.Breakdown.String())
	}
}

func TestCornerTurnPaddingAblation(t *testing.T) {
	// Without row padding the strided walk hammers a few DRAM banks; the
	// paper adds padding precisely to avoid this.
	cfg := DefaultConfig()
	cfg.PadWords = 0
	unpadded := New(cfg)
	padded := New(DefaultConfig())
	ru, err := unpadded.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := padded.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ru.Cycles <= rp.Cycles {
		t.Fatalf("unpadded (%d) not slower than padded (%d)", ru.Cycles, rp.Cycles)
	}
}

func TestBeamSteeringCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 35k cycles with a 56% memory lower bound.
	if r.Cycles < 20_000 || r.Cycles > 60_000 {
		t.Fatalf("beam steering cycles = %d, want ~35k (20k-60k band)", r.Cycles)
	}
	f := r.Breakdown.Fraction("memory")
	if f < 0.35 || f > 0.85 {
		t.Fatalf("memory fraction = %.2f, want ~0.56 (%s)", f, r.Breakdown.String())
	}
}

func TestCSLCCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunCSLC(cslc.PaperSpec(fft.MixedRadix42))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 424k cycles.
	if r.Cycles < 250_000 || r.Cycles > 900_000 {
		t.Fatalf("CSLC cycles = %d, want ~424k (250k-900k band)", r.Cycles)
	}
	if r.OpsPerCycle() <= 1 {
		t.Fatalf("CSLC ops/cycle = %.2f, want > 1 (vector execution)", r.OpsPerCycle())
	}
}

func TestParamsMatchTable2(t *testing.T) {
	p := New(DefaultConfig()).Params()
	if p.ClockMHz != 200 || p.ALUs != 16 || p.PeakGFLOPS != 3.2 {
		t.Fatalf("Table 2 row mismatch: %+v", p)
	}
}

func TestAddressGeneratorAblation(t *testing.T) {
	// More address generators -> faster strided corner turn, up to the
	// sequential limit. This is the paper's "24% due to a limitation in
	// strided load performance imposed by the number of address
	// generators".
	base := DefaultConfig()
	fast := DefaultConfig()
	fast.DRAM.AddrGens = 8
	rb, err := New(base).RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := New(fast).RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles >= rb.Cycles {
		t.Fatalf("8 address generators (%d) not faster than 4 (%d)", rf.Cycles, rb.Cycles)
	}
}

func TestTracerObservesEveryInstruction(t *testing.T) {
	m := New(DefaultConfig())
	var got []TraceEntry
	m.SetTracer(func(e TraceEntry) { got = append(got, e) })
	prog := []Inst{
		{Op: VLoad, VL: 64, Base: 0, Stride: 1, Dst: 1, Src1: -1, Src2: -1},
		{Op: VAddF, VL: 64, Dst: 2, Src1: 1, Src2: -1},
		{Op: VStore, VL: 64, Base: 64, Stride: 1, Dst: -1, Src1: 2, Src2: -1},
	}
	m.exec(prog)
	if len(got) != len(prog) {
		t.Fatalf("traced %d entries, want %d", len(got), len(prog))
	}
	if got[0].Unit != "VMU" || got[1].Unit != "VALU0" {
		t.Fatalf("units: %s, %s", got[0].Unit, got[1].Unit)
	}
	// Starts are monotone within a dependency chain.
	if !(got[0].Start <= got[1].Start && got[1].Start <= got[2].Start) {
		t.Fatalf("starts not monotone: %d %d %d", got[0].Start, got[1].Start, got[2].Start)
	}
	// Tracing must not perturb timing.
	m2 := New(DefaultConfig())
	r2 := m2.exec(prog)
	m.SetTracer(nil)
	m.reset()
	r1 := m.exec(prog)
	if r1.Cycles != r2.Cycles {
		t.Fatalf("tracing changed timing: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

func TestOpNames(t *testing.T) {
	if OpName(VLoad) != "vld" || OpName(VFMA) != "vfma" || OpName(Scalar) != "scalar" {
		t.Fatal("mnemonics wrong")
	}
	if OpName(Op(99)) != "op99" {
		t.Fatalf("unknown op name: %s", OpName(Op(99)))
	}
}

func TestAddressRangeValidation(t *testing.T) {
	m := New(DefaultConfig())
	m.reset()
	m.alloc(1024)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-heap access did not panic")
		}
	}()
	m.exec([]Inst{{Op: VLoad, VL: 64, Base: 4096, Stride: 1, Dst: 0, Src1: -1, Src2: -1}})
}

func TestCornerTurnPermuteVariant(t *testing.T) {
	// The permute formulation trades strided loads for ALU0 permutes and
	// strided stores; it must not beat the paper's strided-load version
	// (which is why the implementers chose strided loads), but it stays
	// within the same regime.
	m := New(DefaultConfig())
	strided, err := m.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	perm, err := m.RunCornerTurnPermute(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if perm.Cycles < strided.Cycles*8/10 {
		t.Fatalf("permute variant (%d) dramatically beats strided (%d); the paper's choice would be wrong",
			perm.Cycles, strided.Cycles)
	}
	if perm.Cycles > strided.Cycles*3 {
		t.Fatalf("permute variant (%d) implausibly slow vs strided (%d)", perm.Cycles, strided.Cycles)
	}
}
