package imagine

import (
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/equalize"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/pfb"
)

var _ core.Machine = (*Machine)(nil)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.AddersPerCluster = 0 },
		func(c *Config) { c.MemControllers = 0 },
		func(c *Config) { c.StreamDescRegs = 1 },
		func(c *Config) { c.PipeDepth = -1 },
		func(c *Config) { c.SRF.CapacityBytes = 0 },
		func(c *Config) { c.Clusters = maxClusters + 1 },
		func(c *Config) { c.DivsPerCluster = maxALUs + 1 },
		func(c *Config) { c.MemControllers = maxMemControllers + 1 },
		func(c *Config) { c.StreamDescRegs = maxStreamDescRegs + 1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestInitiationInterval(t *testing.T) {
	m := New(DefaultConfig())
	cases := []struct {
		k    KernelDesc
		want uint64
	}{
		// 3 adders: 6 adds take 2 cycles.
		{KernelDesc{AddsPerIter: 6}, 2},
		// 2 multipliers: 9 muls take 5 cycles.
		{KernelDesc{MulsPerIter: 9}, 5},
		// Communication-bound.
		{KernelDesc{AddsPerIter: 1, CommPerIter: 8}, 8},
		// Divider-bound.
		{KernelDesc{DivsPerIter: 3}, 3},
		// Empty loops still take a cycle.
		{KernelDesc{}, 1},
	}
	for i, c := range cases {
		if got := m.InitiationInterval(c.k); got != c.want {
			t.Errorf("case %d: II = %d, want %d", i, got, c.want)
		}
	}
}

func TestDescriptorPressureThrottles(t *testing.T) {
	few := DefaultConfig()
	few.StreamDescRegs = 2
	many := DefaultConfig()
	many.StreamDescRegs = 64
	mf := New(few)
	mm := New(many)
	// Issue many short streams; with 2 descriptors they serialize in
	// pairs, with 64 they pack both controllers continuously.
	for i := 0; i < 64; i++ {
		mf.memStream(64, 1, false, 0)
		mm.memStream(64, 1, false, 0)
	}
	if mf.counters.descriptorStalls == 0 {
		t.Fatal("no descriptor stalls with 2 registers")
	}
	if mm.counters.descriptorStalls != 0 {
		t.Fatal("descriptor stalls with 64 registers")
	}
}

func TestMemStreamsBalanceControllers(t *testing.T) {
	m := New(DefaultConfig())
	m.memStream(1000, 1, false, 0)
	m.memStream(1000, 1, false, 0)
	// Two streams on two controllers: both finish around cycle 1000.
	if m.end > 1100 {
		t.Fatalf("two parallel streams finished at %d, want ~1000", m.end)
	}
}

func TestKernelsSerializeOnClusterArray(t *testing.T) {
	m := New(DefaultConfig())
	k := KernelDesc{Iterations: 100, AddsPerIter: 3}
	d1 := m.runKernel(k, 0)
	d2 := m.runKernel(k, 0)
	if d2 <= d1 {
		t.Fatal("second kernel did not wait for the cluster array")
	}
}

func TestCornerTurnCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1,439k cycles, 87% memory. Peak-bandwidth bound: 1,048k.
	if r.Cycles < 1_000_000 || r.Cycles > 2_000_000 {
		t.Fatalf("corner turn cycles = %d, want ~1.44M (1M-2M band)", r.Cycles)
	}
	if f := r.Breakdown.Fraction("memory"); f < 0.6 {
		t.Fatalf("memory fraction = %.2f, want high (%s)", f, r.Breakdown.String())
	}
}

func TestCSLCCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunCSLC(cslc.PaperSpec(fft.MixedRadix42))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 196k cycles, ~10 useful ops/cycle.
	if r.Cycles < 120_000 || r.Cycles > 350_000 {
		t.Fatalf("CSLC cycles = %d, want ~196k (120k-350k band)", r.Cycles)
	}
	if opc := r.OpsPerCycle(); opc < 5 || opc > 20 {
		t.Fatalf("CSLC ops/cycle = %.1f, want ~10", opc)
	}
}

func TestBeamSteeringCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 87k cycles, 89% loads/stores.
	if r.Cycles < 60_000 || r.Cycles > 130_000 {
		t.Fatalf("beam steering cycles = %d, want ~87k (60k-130k band)", r.Cycles)
	}
	if f := r.Breakdown.Fraction("memory"); f < 0.6 {
		t.Fatalf("memory fraction = %.2f, want ~0.89 (%s)", f, r.Breakdown.String())
	}
}

func TestBeamSteeringSRFTablesAblation(t *testing.T) {
	// The paper: "If table values were read from the stream register file
	// rather than memory ... performance would be increased by a factor
	// of about two."
	m := New(DefaultConfig())
	base, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	srf, err := m.RunBeamSteeringSRFTables(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.Cycles) / float64(srf.Cycles)
	if ratio < 1.4 || ratio > 3.5 {
		t.Fatalf("SRF-tables speedup = %.2f, want ~2", ratio)
	}
}

func TestParamsMatchTable2(t *testing.T) {
	p := New(DefaultConfig()).Params()
	if p.ClockMHz != 300 || p.ALUs != 48 || p.PeakGFLOPS != 14.4 {
		t.Fatalf("Table 2 row mismatch: %+v", p)
	}
}

func TestCSLCBestOfThreeArchitectures(t *testing.T) {
	// The paper's headline for Imagine: best CSLC because the working set
	// fits the SRF. Cross-machine ordering is asserted in the core study
	// tests; here, check the kernel is compute-dominated, unlike the
	// memory-bound corner turn.
	m := New(DefaultConfig())
	r, err := m.RunCSLC(cslc.PaperSpec(fft.MixedRadix42))
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.Get("compute") <= r.Breakdown.Get("memory") {
		t.Fatalf("CSLC not compute-dominated: %s", r.Breakdown.String())
	}
}

func TestCSLCIndependentFFTsAblation(t *testing.T) {
	// The paper attributes a 30% penalty to inter-cluster communication
	// in the parallel-FFT implementation; the independent variant
	// eliminates it.
	m := New(DefaultConfig())
	par, err := m.RunCSLC(cslc.PaperSpec(fft.MixedRadix42))
	if err != nil {
		t.Fatal(err)
	}
	ind, err := m.RunCSLCIndependentFFTs(cslc.PaperSpec(fft.MixedRadix42))
	if err != nil {
		t.Fatal(err)
	}
	if ind.Cycles >= par.Cycles {
		t.Fatalf("independent FFTs (%d) not faster than parallel (%d)", ind.Cycles, par.Cycles)
	}
	gain := float64(par.Cycles)/float64(ind.Cycles) - 1
	if gain < 0.1 || gain > 0.9 {
		t.Fatalf("independent-FFT gain = %.0f%%, want ~30%%", gain*100)
	}
}

func TestBeamSteeringPipelinedIsComputeBound(t *testing.T) {
	// Section 4.4: inside a pipeline "the performance of beam steering
	// will not be limited by memory bandwidth ... but rather will be
	// limited by arithmetic performance."
	m := New(DefaultConfig())
	isolated, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	piped, err := m.RunBeamSteeringPipelined(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if piped.Cycles >= isolated.Cycles {
		t.Fatalf("pipelined (%d) not faster than isolated (%d)", piped.Cycles, isolated.Cycles)
	}
	if piped.Breakdown.Get("compute") <= piped.Breakdown.Get("memory") {
		t.Fatalf("pipelined mode not compute-bound: %s", piped.Breakdown.String())
	}
	// The paper expects "a high fraction of its peak performance": the
	// pipelined kernel should beat even the SRF-tables variant.
	srf, err := m.RunBeamSteeringSRFTables(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if piped.Cycles >= srf.Cycles {
		t.Fatalf("pipelined (%d) not faster than SRF-tables (%d)", piped.Cycles, srf.Cycles)
	}
}

func TestPipelineBeatsIsolatedStages(t *testing.T) {
	// The three-stage pipeline keeps intermediates in the SRF, so it
	// must cost less than running the channelizer alone plus the
	// memory-bound isolated beam steering (the Section 4.4 argument).
	m := New(DefaultConfig())
	w := pfb.DefaultWorkload()
	eq := equalize.DefaultSpec()
	pipe, err := m.RunPipeline(w, beamsteer.PaperSpec(), eq)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Cycles == 0 || !pipe.Verified {
		t.Fatalf("bad pipeline result %+v", pipe)
	}
	solo, err := m.RunPFB(w)
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline adds two more stages yet costs at most ~60% more than
	// the channelizer alone — the added stages ride along in the SRF.
	ratio := float64(pipe.Cycles) / float64(solo.Cycles)
	if ratio < 1.0 || ratio > 1.6 {
		t.Fatalf("pipeline/channelizer ratio = %.2f, want 1.0-1.6", ratio)
	}
	// DRAM traffic is input + beams only: far less than the channelizer's
	// own output would have been.
	if pipe.Words >= solo.Words {
		t.Fatalf("pipeline words %d not below channelizer words %d", pipe.Words, solo.Words)
	}
}
