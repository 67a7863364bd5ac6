package ppc

import (
	"math"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

var _ core.Machine = (*Machine)(nil)

func TestConfigValidate(t *testing.T) {
	for _, v := range []Variant{Scalar, AltiVec} {
		if err := DefaultConfig(v).Validate(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	mutations := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.FPLatency = 0 },
		func(c *Config) { c.MLP = 0.5 },
		func(c *Config) { c.MLPStore = 0 },
		func(c *Config) { c.IssueWidth = maxIssueWidth + 1 },
		func(c *Config) { c.LSPorts = maxLSPorts + 1 },
		func(c *Config) { c.FPLatency = maxLatency + 1 },
		func(c *Config) { c.VecLatency = 1 << 58 },
		func(c *Config) { c.MLP = maxMLP + 0.5 },
		func(c *Config) { c.MLPStore = math.NaN() },
		func(c *Config) { c.MLPStore = math.Inf(1) },
		func(c *Config) { c.L1.SizeBytes = 0 },
		func(c *Config) { c.DRAM.Banks = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig(Scalar)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
	limit := DefaultConfig(AltiVec)
	limit.IssueWidth, limit.LSPorts, limit.FPLatency, limit.VecLatency = maxIssueWidth, maxLSPorts, maxLatency, maxLatency
	limit.MLP, limit.MLPStore = maxMLP, maxMLP
	if err := limit.Validate(); err != nil {
		t.Errorf("config at every bound rejected: %v", err)
	}
}

func TestVariantNames(t *testing.T) {
	if New(DefaultConfig(Scalar)).Name() != "PPC" {
		t.Fatal("scalar variant name")
	}
	if New(DefaultConfig(AltiVec)).Name() != "AltiVec" {
		t.Fatal("AltiVec variant name")
	}
}

func TestLoopCyclesBounds(t *testing.T) {
	m := New(DefaultConfig(Scalar))
	// Issue-width bound: 8 int ops at width 2 = 4 cycles.
	if got := m.loopCycles(loopMix{iters: 1, intOps: 8}); got != 4 {
		t.Fatalf("issue-bound loop = %d, want 4", got)
	}
	// FPU bound: 6 fp ops on one FPU = 6 cycles (6 > (6)/2).
	if got := m.loopCycles(loopMix{iters: 1, fpOps: 6}); got != 6 {
		t.Fatalf("FPU-bound loop = %d, want 6", got)
	}
	// Critical-path bound dominates everything.
	if got := m.loopCycles(loopMix{iters: 1, intOps: 2, critical: 50}); got != 50 {
		t.Fatalf("latency-bound loop = %d, want 50", got)
	}
	// Iterations multiply.
	if got := m.loopCycles(loopMix{iters: 10, intOps: 2}); got != 10 {
		t.Fatalf("10 iterations = %d, want 10", got)
	}
}

func TestCornerTurnCyclesAndAltiVecBarelyHelps(t *testing.T) {
	sc, err := New(DefaultConfig(Scalar)).RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	av, err := New(DefaultConfig(AltiVec)).RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 34.25M scalar, 29.29M AltiVec.
	if sc.Cycles < 20_000_000 || sc.Cycles > 45_000_000 {
		t.Fatalf("scalar corner turn = %d, want ~34M", sc.Cycles)
	}
	// "AltiVec ... does not significantly improve performance for the
	// corner turn": ratio ~1.17.
	ratio := float64(sc.Cycles) / float64(av.Cycles)
	if ratio < 1.0 || ratio > 1.5 {
		t.Fatalf("scalar/AltiVec corner-turn ratio = %.2f, want ~1.17", ratio)
	}
	// Memory-bound on both variants.
	if f := sc.Breakdown.Fraction("memory"); f < 0.6 {
		t.Fatalf("scalar memory fraction = %.2f (%s)", f, sc.Breakdown.String())
	}
}

func TestCSLCAltiVecGainsAboutSix(t *testing.T) {
	sc, err := New(DefaultConfig(Scalar)).RunCSLC(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	av, err := New(DefaultConfig(AltiVec)).RunCSLC(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "a performance factor of about six for the CSLC".
	ratio := float64(sc.Cycles) / float64(av.Cycles)
	if ratio < 3.5 || ratio > 8 {
		t.Fatalf("scalar/AltiVec CSLC ratio = %.2f, want ~6", ratio)
	}
	// Modeled absolutes land below the published measurement (see
	// EXPERIMENTS.md); assert the modeled band.
	if sc.Cycles < 8_000_000 || sc.Cycles > 32_000_000 {
		t.Fatalf("scalar CSLC = %d, want 8M-32M", sc.Cycles)
	}
	if av.Cycles < 1_500_000 || av.Cycles > 6_000_000 {
		t.Fatalf("AltiVec CSLC = %d, want 1.5M-6M", av.Cycles)
	}
}

func TestBeamSteeringAltiVecGainsAboutTwo(t *testing.T) {
	sc, err := New(DefaultConfig(Scalar)).RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	av, err := New(DefaultConfig(AltiVec)).RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 730k scalar, 364k AltiVec ("about two for beam steering").
	if sc.Cycles < 450_000 || sc.Cycles > 1_000_000 {
		t.Fatalf("scalar beam steering = %d, want ~730k", sc.Cycles)
	}
	if av.Cycles < 220_000 || av.Cycles > 550_000 {
		t.Fatalf("AltiVec beam steering = %d, want ~364k", av.Cycles)
	}
	ratio := float64(sc.Cycles) / float64(av.Cycles)
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("scalar/AltiVec ratio = %.2f, want ~2", ratio)
	}
}

func TestCornerTurnConflictMisses(t *testing.T) {
	// The 16-row blocks conflict in the L1 (4 KB row stride, 8 ways):
	// the destination write pattern must miss L1 far more often than the
	// 1-in-8 spatial minimum. The trace memo is purged so this instance
	// walks its own hierarchy instead of reading an earlier walk's cost.
	walks.Purge()
	m := New(DefaultConfig(Scalar))
	if _, err := m.RunCornerTurn(cornerturn.PaperSpec()); err != nil {
		t.Fatal(err)
	}
	misses := m.l1.Counters().Misses
	accesses := m.l1.Counters().Hits + misses
	rate := float64(misses) / float64(accesses)
	if rate < 0.15 {
		t.Fatalf("L1 miss rate = %.3f, want conflict-inflated (> 0.15)", rate)
	}
}

func TestParamsMatchTable2(t *testing.T) {
	p := New(DefaultConfig(Scalar)).Params()
	if p.ClockMHz != 1000 || p.ALUs != 4 || p.PeakGFLOPS != 5 {
		t.Fatalf("Table 2 row mismatch: %+v", p)
	}
}

func TestMLPStoreReducesWriteStalls(t *testing.T) {
	cfg := DefaultConfig(Scalar)
	cfg.MLPStore = 1
	slow, err := New(cfg).RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(DefaultConfig(Scalar)).RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("MLPStore=1 (%d) not slower than default (%d)", slow.Cycles, fast.Cycles)
	}
}
