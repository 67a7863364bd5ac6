package rawsim

import (
	"testing"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
)

var _ core.Machine = (*Machine)(nil)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Mesh.Width = 0 },
		func(c *Config) { c.TileMem.CapacityBytes = 0 },
		func(c *Config) { c.DRAM.Banks = 0 },
		func(c *Config) { c.CacheLineWords = 0 },
		func(c *Config) { c.LoopOverheadPerRow = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestComputeAdvancesOneTileOnly(t *testing.T) {
	m := New(DefaultConfig())
	m.compute(3, 100, catCompute)
	if m.tileClock[3] != 100 {
		t.Fatalf("tile 3 clock = %d", m.tileClock[3])
	}
	for i, c := range m.tileClock {
		if i != 3 && c != 0 {
			t.Fatalf("tile %d advanced to %d", i, c)
		}
	}
}

func TestPortInStoreInstrsCostOneCyclePerWord(t *testing.T) {
	m := New(DefaultConfig())
	m.portIn(0, 1000, true)
	// Tile issues 1000 stores; the port streams 1000 words at 1/cycle;
	// these overlap, so the clock lands near 1000 plus network latency.
	if m.tileClock[0] < 1000 || m.tileClock[0] > 1100 {
		t.Fatalf("portIn clock = %d, want ~1000", m.tileClock[0])
	}
}

func TestCacheFillStallsTile(t *testing.T) {
	m := New(DefaultConfig())
	m.cacheFill(5, 10)
	if m.tileClock[5] == 0 {
		t.Fatal("cache fills did not stall the tile")
	}
	perLine := m.tileClock[5] / 10
	// A round trip over the dynamic network plus a DRAM line fetch: tens
	// of cycles.
	if perLine < 20 || perLine > 120 {
		t.Fatalf("per-line fill cost = %d, want 20-120", perLine)
	}
}

func TestCornerTurnCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 146k cycles, issue-rate limited (lower bound 131k).
	if r.Cycles < 131_000 || r.Cycles > 200_000 {
		t.Fatalf("corner turn cycles = %d, want ~146k (131k-200k band)", r.Cycles)
	}
	// "Memory latency is fully hidden": network wait must be a small
	// fraction.
	if f := r.Breakdown.Fraction("net-wait"); f > 0.1 {
		t.Fatalf("net-wait fraction = %.2f, want < 0.1 (%s)", f, r.Breakdown.String())
	}
}

func TestCSLCCyclesAndBreakdown(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunCSLC(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 357k cycles (perfect-balance extrapolation).
	if r.Cycles < 250_000 || r.Cycles > 500_000 {
		t.Fatalf("CSLC cycles = %d, want ~357k (250k-500k band)", r.Cycles)
	}
	if len(r.Notes) == 0 {
		t.Fatal("extrapolated result carries no note")
	}
	// Paper: ~26% of cycles in loads/stores, <10% cache stalls.
	if f := r.Breakdown.Fraction("load-store"); f < 0.18 || f > 0.38 {
		t.Fatalf("load/store fraction = %.2f, want ~0.26 (%s)", f, r.Breakdown.String())
	}
	if f := r.Breakdown.Fraction("cache-stall"); f > 0.12 {
		t.Fatalf("cache-stall fraction = %.2f, want < 0.10 (%s)", f, r.Breakdown.String())
	}
}

func TestCSLCLoadBalanceAblation(t *testing.T) {
	m := New(DefaultConfig())
	bal, err := m.RunCSLC(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	imb, err := m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	if imb.Cycles <= bal.Cycles {
		t.Fatalf("imbalanced (%d) not slower than balanced (%d)", imb.Cycles, bal.Cycles)
	}
	// Paper: "about 8% of CPU cycles are idle due to load balancing".
	overhead := float64(imb.Cycles-bal.Cycles) / float64(imb.Cycles)
	if overhead < 0.04 || overhead > 0.15 {
		t.Fatalf("imbalance overhead = %.2f, want ~0.08", overhead)
	}
}

func TestCSLCRadix4SpillsAblation(t *testing.T) {
	// Paper: the radix-4 FFT "provided [worse] performance than the
	// radix-2 FFT because of register spilling".
	m := New(DefaultConfig())
	r2, err := m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := m.RunCSLCRadix4(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cycles <= r2.Cycles {
		t.Fatalf("radix-4 with spills (%d) not slower than radix-2 (%d)", r4.Cycles, r2.Cycles)
	}
}

func TestBeamSteeringCycles(t *testing.T) {
	m := New(DefaultConfig())
	r, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 19k cycles, the best of the three architectures, with very
	// high ALU utilization.
	if r.Cycles < 19_000 || r.Cycles > 30_000 {
		t.Fatalf("beam steering cycles = %d, want ~19k (19k-30k band)", r.Cycles)
	}
	if f := r.Breakdown.Fraction("compute"); f < 0.75 {
		t.Fatalf("compute fraction = %.2f, want > 0.75 (%s)", f, r.Breakdown.String())
	}
	// Stream mode: no loads or stores at all.
	if r.Breakdown.Get("load-store") != 0 {
		t.Fatalf("stream-mode beam steering executed loads/stores: %s", r.Breakdown.String())
	}
}

func TestParamsMatchTable2(t *testing.T) {
	p := New(DefaultConfig()).Params()
	if p.ClockMHz != 300 || p.ALUs != 16 || p.PeakGFLOPS != 4.64 {
		t.Fatalf("Table 2 row mismatch: %+v", p)
	}
}

// cacheModelFor builds a tile-local cache over its own DRAM port, the
// structure a tile presents in cache-miss (MIMD) mode.
func (m *Machine) cacheModelFor(tile int) *cache.Cache {
	return cache.NewOverDRAM(cache.RawTileCache(tile), dram.NewController(m.cfg.DRAM))
}

func TestTileCacheModel(t *testing.T) {
	m := New(DefaultConfig())
	c := m.cacheModelFor(0)
	// One sub-band set (4 channels x 1 KB) fits the 32 KB tile cache:
	// after a first pass, a second pass must hit.
	for a := 0; a < 4*1024; a += 4 {
		c.Access(a, false)
	}
	before := c.Counters().Misses
	for a := 0; a < 4*1024; a += 4 {
		c.Access(a, false)
	}
	if c.Counters().Misses != before {
		t.Fatal("second pass over a resident working set missed")
	}
}

func TestTileCountScaling(t *testing.T) {
	// A 2x2 mesh (4 tiles) must be slower on the corner turn than the
	// 4x4 chip: the kernel is issue-rate limited.
	small := DefaultConfig()
	small.Mesh.Width, small.Mesh.Height = 2, 2
	ms := New(small)
	mb := New(DefaultConfig())
	rs, err := ms.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mb.RunCornerTurn(cornerturn.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rs.Cycles) / float64(rb.Cycles)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("4-tile/16-tile ratio = %.2f, want ~4", ratio)
	}
}

func TestCSLCStreamVariantFaster(t *testing.T) {
	// Paper: streaming the FFT over the static network "suggests about
	// 70% of FFT performance improvement" over the cache-mode version.
	m := New(DefaultConfig())
	mimd, err := m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := m.RunCSLCStream(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(mimd.Cycles) / float64(stream.Cycles)
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("stream/MIMD speedup = %.2f, want ~1.7 (paper: ~70%% FFT improvement)", ratio)
	}
}

func TestTileUtilizationShowsImbalance(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2)); err != nil {
		t.Fatal(err)
	}
	tu := m.TileUtilization()
	if len(tu) != 16 {
		t.Fatalf("%d tiles", len(tu))
	}
	// 73 sets on 16 tiles: tiles 0-8 run five sets, tiles 9-15 four, so
	// a five-set tile must report ~25% more cycles than a four-set tile.
	ratio := float64(tu[0].Cycles) / float64(tu[15].Cycles)
	if ratio < 1.15 || ratio > 1.4 {
		t.Fatalf("5-set/4-set tile cycle ratio = %.2f, want ~1.25", ratio)
	}
	if tu[0].Breakdown.Get("compute") == 0 {
		t.Fatal("per-tile breakdown empty")
	}
}

func TestCSLCDMAEliminatesCacheStalls(t *testing.T) {
	// Paper: "most of this stalling could have been eliminated by
	// implementing a streaming DMA transfer to the local memory that is
	// overlapped with the computation."
	m := New(DefaultConfig())
	cachey, err := m.RunCSLCImbalanced(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	dma, err := m.RunCSLCDMA(cslc.PaperSpec(fft.Radix2))
	if err != nil {
		t.Fatal(err)
	}
	if dma.Cycles >= cachey.Cycles {
		t.Fatalf("DMA variant (%d) not faster than cache mode (%d)", dma.Cycles, cachey.Cycles)
	}
	if got := dma.Breakdown.Get("cache-stall"); got != 0 {
		t.Fatalf("DMA variant still has %d cache-stall cycles", got)
	}
	// The gain is bounded by the former stall share (~8-10%).
	gain := 1 - float64(dma.Cycles)/float64(cachey.Cycles)
	if gain < 0.03 || gain > 0.20 {
		t.Fatalf("DMA gain = %.0f%%, want ~8%%", gain*100)
	}
}

func TestBeamSteeringStreamVsMIMD(t *testing.T) {
	// The paper reports the stream-mode number and describes the MIMD
	// mode as "easy-to-program but less efficient": the explicit
	// loads/stores and cache traffic must cost noticeably more.
	m := New(DefaultConfig())
	stream, err := m.RunBeamSteering(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	mimd, err := m.RunBeamSteeringMIMD(beamsteer.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(mimd.Cycles) / float64(stream.Cycles)
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("MIMD/stream ratio = %.2f, want 1.3-3.5 (loads+stores reappear)", ratio)
	}
	if mimd.Breakdown.Get("load-store") == 0 {
		t.Fatal("MIMD mode executed no loads/stores")
	}
}
