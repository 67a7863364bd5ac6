// Package rawsim models the MIT Raw tiled processor: sixteen single-issue
// MIPS-style tiles on a 4x4 mesh, each with local SRAM and a switch
// processor on the static scalar-operand network, with DRAM at the
// peripheral network ports.
//
// The model captures the properties the paper's analysis turns on:
//
//   - issue-rate-limited corner turn (Section 4.2: "16 instructions per
//     cycle are executed on the Raw tiles, and the static network and
//     DRAM ports are not a bottleneck");
//   - cache-mode (MIMD) execution for CSLC with misses served over the
//     dynamic network (Section 4.3: "less than 10% of the execution time
//     is spent on memory stalls", "about 26% of the cycles ... are
//     consumed by load and store instructions");
//   - load imbalance when 73 data sets land on 16 tiles (Section 4.3:
//     "some tiles processed five sets while others processed four ...
//     about 8% of CPU cycles are idle"), and the paper's perfect-balance
//     extrapolation;
//   - stream-mode execution for beam steering where tiles operate on
//     data directly from the static network, eliminating loads and
//     stores entirely (Section 4.4).
//
// Each tile executes a program of segments (compute instructions, local
// memory accesses, port streams, cache fills); tiles share the mesh and
// the port DRAMs through reservation state.
package rawsim

import (
	"fmt"

	"sigkern/internal/core"
	"sigkern/internal/dram"
	"sigkern/internal/noc"
	"sigkern/internal/sim"
	"sigkern/internal/sram"
)

// Config parameterizes the machine model.
type Config struct {
	Name     string
	ClockMHz float64
	// Mesh is the tile interconnect (4x4 on the Raw prototype).
	Mesh noc.Config
	// TileMem is each tile's data SRAM.
	TileMem sram.Config
	// DRAM configures the memory at each peripheral port.
	DRAM dram.Config
	// CacheLineWords is the line size used in cache (MIMD) mode.
	CacheLineWords int
	// LoopOverheadPerRow is the per-row address/loop instruction count of
	// streaming loops (the corner turn's ~11% overhead).
	LoopOverheadPerRow int
}

// DefaultConfig returns the model of the chip described in the paper.
func DefaultConfig() Config {
	return Config{
		Name:               "Raw",
		ClockMHz:           300,
		Mesh:               noc.RawMesh(),
		TileMem:            sram.RawTileMemory(0),
		DRAM:               dram.RawPort(0),
		CacheLineWords:     8,
		LoopOverheadPerRow: 16,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Mesh.Validate(); err != nil {
		return err
	}
	if err := c.TileMem.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.CacheLineWords <= 0 {
		return fmt.Errorf("rawsim: cache line %d words", c.CacheLineWords)
	}
	if c.LoopOverheadPerRow < 0 {
		return fmt.Errorf("rawsim: negative loop overhead")
	}
	return nil
}

// Machine is one Raw instance. It is not safe for concurrent use.
type Machine struct {
	cfg        Config
	mesh       *noc.Mesh
	ports      []*dram.Controller
	portOfTile []int

	tileClock []uint64
	portFree  []uint64
	// tileBusy and counters accumulate the current kernel run's cycle
	// attribution and events; finish turns them into the Result's
	// Breakdown and Stats.
	tileBusy []tileCycles
	counters counters
}

// tileCategory is one cause a tile's cycles are attributed to.
type tileCategory int

const (
	catCompute tileCategory = iota
	catAddrLoop
	catLoadStore
	catNetWait
	catCacheStall
	numTileCategories
)

// tileCategoryNames are the Breakdown names of the tile categories.
var tileCategoryNames = [numTileCategories]string{
	"compute", "addr-loop", "load-store", "net-wait", "cache-stall",
}

// tileCycles attributes one tile's cycles to the tile categories.
type tileCycles [numTileCategories]uint64

// breakdown reports the categories that received cycles.
func (c *tileCycles) breakdown() sim.Breakdown {
	var b sim.Breakdown
	for k, v := range c {
		if v > 0 {
			b.Add(tileCategoryNames[k], v)
		}
	}
	return b
}

// counters are the event counts of one kernel run.
type counters struct {
	instructions, localAccesses, cacheMisses uint64
	portWordsIn, portWordsOut                uint64
}

// New returns a machine for cfg, panicking on invalid configuration.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, mesh: noc.NewMesh(cfg.Mesh)}
	for p := 0; p < m.mesh.PortCount(); p++ {
		d := cfg.DRAM
		d.Name = fmt.Sprintf("%s-port%d", cfg.Name, p)
		m.ports = append(m.ports, dram.NewController(d))
	}
	m.portOfTile = assignPorts(m.mesh)
	m.reset()
	return m
}

// Name implements core.Machine.
func (m *Machine) Name() string { return m.cfg.Name }

// Params implements core.Machine with the paper's Table 2 row.
func (m *Machine) Params() core.Params {
	return core.Params{
		ClockMHz:    m.cfg.ClockMHz,
		ALUs:        m.mesh.Tiles(),
		PeakGFLOPS:  4.64,
		Description: "16-tile mesh with static scalar-operand network",
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Tiles returns the tile count.
func (m *Machine) Tiles() int { return m.mesh.Tiles() }

// Reset implements core.Resettable: it rewinds every tile clock, mesh
// link, and port timeline so the instance can be reused across jobs
// with bit-identical cycle counts. Every kernel entry point performs
// the same rewind on entry.
func (m *Machine) Reset() { m.reset() }

// reset rewinds all timelines between kernel runs.
func (m *Machine) reset() {
	n := m.mesh.Tiles()
	m.tileClock = make([]uint64, n)
	m.tileBusy = make([]tileCycles, n)
	m.portFree = make([]uint64, m.mesh.PortCount())
	m.mesh.Reset()
	for _, p := range m.ports {
		p.Reset()
	}
	m.counters = counters{}
}

// raw4x4Ports maps each tile of the 4x4 chip to a peripheral port so
// that every boundary tile attaches to its own port directly (no mesh
// links used) and only the four interior tiles route a couple of hops —
// the paper's corner-turn algorithm "was developed ... to avoid
// bottlenecks in the static networks and data ports".
var raw4x4Ports = [16]int{
	0, 1, 2, 3, // row 0: top ports attach directly
	14, 15, 4, 5, // tile4 left, tiles 5-6 interior via corners, tile7 right
	13, 12, 7, 6, // tile8 left, tiles 9-10 interior, tile11 right
	11, 10, 9, 8, // row 3: bottom ports attach directly
}

// assignPorts computes a balanced nearest-port assignment for arbitrary
// mesh shapes (the sweep tool explores 2x2 through 8x8): every port
// serves at most ceil(tiles/ports) tiles, and each tile picks the
// closest attachment among the least-loaded ports.
func assignPorts(mesh *noc.Mesh) []int {
	tiles := mesh.Tiles()
	ports := mesh.PortCount()
	if tiles == 16 && ports == 16 {
		out := make([]int, 16)
		copy(out, raw4x4Ports[:])
		return out
	}
	maxPerPort := (tiles + ports - 1) / ports
	load := make([]int, ports)
	out := make([]int, tiles)
	for t := 0; t < tiles; t++ {
		best, bestKey := -1, 0
		for p := 0; p < ports; p++ {
			if load[p] >= maxPerPort {
				continue
			}
			// Balance first, then proximity.
			key := load[p]*1000 + mesh.Hops(t, mesh.PortTile(p))
			if best == -1 || key < bestKey {
				best, bestKey = p, key
			}
		}
		out[t] = best
		load[best]++
	}
	return out
}

// tilePort returns the peripheral port assigned to a tile.
func (m *Machine) tilePort(tile int) int {
	return m.portOfTile[tile]
}

// compute advances a tile by n single-issue ALU instructions.
func (m *Machine) compute(tile int, n int, category tileCategory) {
	m.tileClock[tile] += uint64(n)
	m.tileBusy[tile][category] += uint64(n)
	m.counters.instructions += uint64(n)
}

// localMem advances a tile by n local-SRAM load/store instructions
// (single cycle each on Raw).
func (m *Machine) localMem(tile int, n int) {
	m.tileClock[tile] += uint64(n)
	m.tileBusy[tile][catLoadStore] += uint64(n)
	m.counters.instructions += uint64(n)
	m.counters.localAccesses += uint64(n)
}

// portIn streams words from the tile's DRAM port over the static network
// into the tile. If storeInstrs is true the tile spends one store
// instruction per word (staging into local memory); otherwise the words
// are consumed directly from the network as register operands and the
// tile only stalls if data arrives slower than it computes.
func (m *Machine) portIn(tile, words int, storeInstrs bool) {
	if words == 0 {
		return
	}
	port := m.tilePort(tile)
	ctl := m.ports[port]
	start := m.tileClock[tile]
	if m.portFree[port] > start {
		start = m.portFree[port]
	}
	ctl.SyncTo(start)
	sr := ctl.Stream(dram.Request{Stride: 1, Count: words})
	portDone := start + sr.Cycles
	m.portFree[port] = portDone
	arrival := m.mesh.SendStatic(m.mesh.PortTile(port), tile, words, start)
	finish := arrival
	instrDone := m.tileClock[tile]
	if storeInstrs {
		instrDone += uint64(words)
		m.tileBusy[tile][catLoadStore] += uint64(words)
		m.counters.instructions += uint64(words)
	}
	if instrDone > finish {
		finish = instrDone
	}
	if finish > instrDone {
		m.tileBusy[tile][catNetWait] += finish - instrDone
	}
	if finish > m.tileClock[tile] {
		m.tileClock[tile] = finish
	}
	m.counters.portWordsIn += uint64(words)
}

// portOut streams words from the tile to its DRAM port. If loadInstrs is
// true the tile spends one load instruction per word reading local
// memory onto the network.
func (m *Machine) portOut(tile, words int, loadInstrs bool) {
	if words == 0 {
		return
	}
	port := m.tilePort(tile)
	start := m.tileClock[tile]
	if loadInstrs {
		m.tileClock[tile] += uint64(words)
		m.tileBusy[tile][catLoadStore] += uint64(words)
		m.counters.instructions += uint64(words)
	}
	m.mesh.SendStatic(tile, m.mesh.PortTile(port), words, start)
	ctl := m.ports[port]
	// The DRAM write streams as words arrive: it begins one network
	// latency after the tile starts sending, not after the last word.
	wstart := start + m.mesh.StaticLatency(tile, m.mesh.PortTile(port))
	if m.portFree[port] > wstart {
		wstart = m.portFree[port]
	}
	ctl.SyncTo(wstart)
	sr := ctl.Stream(dram.Request{Stride: 1, Count: words, Write: true})
	m.portFree[port] = wstart + sr.Cycles
	m.counters.portWordsOut += uint64(words)
}

// cacheFill charges a tile for line cache misses served over the dynamic
// network: a request packet to the port, a DRAM line fetch, and the line
// returned as a packet. The tile stalls for the full round trip (the
// paper notes a streaming DMA overlap would have hidden most of this).
func (m *Machine) cacheFill(tile, lines int) {
	port := m.tilePort(tile)
	portTile := m.mesh.PortTile(port)
	for i := 0; i < lines; i++ {
		t := m.tileClock[tile]
		req := m.mesh.SendPacket(tile, portTile, 1, t)
		ctl := m.ports[port]
		ctl.SyncTo(req)
		lat := ctl.LineFetch(0, m.cfg.CacheLineWords)
		resp := m.mesh.SendPacket(portTile, tile, m.cfg.CacheLineWords, req+lat)
		stall := resp - t
		m.tileClock[tile] += stall
		m.tileBusy[tile][catCacheStall] += stall
	}
	m.counters.cacheMisses += uint64(lines)
}

// finish assembles a core.Result: total cycles are the slowest tile's
// clock; the breakdown averages the per-tile categories and attributes
// the idle tail of faster tiles to load imbalance.
func (m *Machine) finish(kernel core.KernelID, ops, words uint64) core.Result {
	var total uint64
	for _, c := range m.tileClock {
		if c > total {
			total = c
		}
	}
	var sum tileCycles
	var idle uint64
	for t, c := range m.tileClock {
		for k, v := range m.tileBusy[t] {
			sum[k] += v
		}
		idle += total - c
	}
	// Average the per-tile categories so fractions are per-tile shares.
	b := sum.breakdown()
	b.Scale(1, uint64(m.mesh.Tiles()))
	b.Add("imbalance-idle", idle/uint64(m.mesh.Tiles()))
	var st sim.Stats
	st.Inc("instructions", m.counters.instructions)
	st.Inc("local_accesses", m.counters.localAccesses)
	st.Inc("cache_misses", m.counters.cacheMisses)
	st.Inc("port_words_in", m.counters.portWordsIn)
	st.Inc("port_words_out", m.counters.portWordsOut)
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

// TileUtilization reports, for the most recent kernel run, each tile's
// final clock and cycle breakdown — the per-tile view behind the
// aggregate result (useful for spotting load imbalance).
func (m *Machine) TileUtilization() []struct {
	Tile      int
	Cycles    uint64
	Breakdown sim.Breakdown
} {
	out := make([]struct {
		Tile      int
		Cycles    uint64
		Breakdown sim.Breakdown
	}, m.mesh.Tiles())
	for t := range out {
		out[t].Tile = t
		out[t].Cycles = m.tileClock[t]
		out[t].Breakdown = m.tileBusy[t].breakdown()
	}
	return out
}
