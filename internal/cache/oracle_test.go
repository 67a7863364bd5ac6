package cache

import (
	"math/rand"
	"testing"

	"sigkern/internal/dram"
)

// The cache model before sets were kept in recency order: each way holds
// an LRU timestamp, a miss scans for the victim, and the levels talk
// through an interface. It lives on as the oracle the recency-ordered
// Cache must match call for call.

// level is anything that can serve a line-sized access.
type level interface {
	Access(addr int, write bool) uint64
	Reset()
}

// dramBackend serves whole-line fills (and writebacks) from a DRAM
// controller, LineWords words per access.
type dramBackend struct {
	ctl       *dram.Controller
	lineWords int
}

func (b *dramBackend) Access(addr int, write bool) uint64 {
	return b.ctl.LineFetch(addr/4, b.lineWords)
}

func (b *dramBackend) Reset() { b.ctl.Reset() }

type oracleLine struct {
	tag   int
	valid bool
	dirty bool
	used  uint64
}

type oracleCache struct {
	cfg      Config
	sets     [][]oracleLine
	lower    level
	tick     uint64
	counters Counters
}

func newOracle(cfg Config, lower level) *oracleCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &oracleCache{cfg: cfg, lower: lower}
	c.Reset()
	return c
}

func (c *oracleCache) Reset() {
	nsets := c.cfg.SizeBytes / (c.cfg.LineBytes * c.cfg.Assoc)
	c.sets = make([][]oracleLine, nsets)
	for i := range c.sets {
		c.sets[i] = make([]oracleLine, c.cfg.Assoc)
	}
	c.tick = 0
	c.counters = Counters{}
	c.lower.Reset()
}

func (c *oracleCache) Access(addr int, write bool) uint64 {
	if addr < 0 {
		addr = -addr
	}
	c.tick++
	lineAddr := addr / c.cfg.LineBytes
	set := lineAddr % len(c.sets)
	tag := lineAddr / len(c.sets)

	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = c.tick
			if write {
				ways[i].dirty = true
			}
			c.counters.Hits++
			return uint64(c.cfg.HitLatency)
		}
	}
	c.counters.Misses++

	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	lat := uint64(c.cfg.HitLatency)
	if ways[victim].valid && ways[victim].dirty {
		victimAddr := (ways[victim].tag*len(c.sets) + set) * c.cfg.LineBytes
		c.lower.Access(victimAddr, true)
		c.counters.Writebacks++
	}
	lat += c.lower.Access(addr, false)
	ways[victim] = oracleLine{tag: tag, valid: true, dirty: write, used: c.tick}
	return lat
}

// hierarchy is an L1 -> L2 -> DRAM stack built twice: once from Cache,
// once from the oracle, each over its own controller.
type hierarchy struct {
	name     string
	l1, l2   *Cache
	mem      *dram.Controller
	o1, o2   *oracleCache
	omem     *dram.Controller
	accesses int
}

func newHierarchy(name string, l1, l2 Config, mem dram.Config) *hierarchy {
	h := &hierarchy{name: name, mem: dram.NewController(mem), omem: dram.NewController(mem)}
	h.l2 = NewOverDRAM(l2, h.mem)
	h.l1 = New(l1, h.l2)
	h.o2 = newOracle(l2, &dramBackend{ctl: h.omem, lineWords: l2.LineBytes / 4})
	h.o1 = newOracle(l1, h.o2)
	return h
}

// access runs one access through both stacks and fails on the first
// difference in latency or in any level's counters.
func (h *hierarchy) access(t *testing.T, addr int, write bool) {
	t.Helper()
	h.accesses++
	got, want := h.l1.Access(addr, write), h.o1.Access(addr, write)
	if got != want {
		t.Fatalf("%s: access %d (addr %d write %v): latency %d, oracle %d", h.name, h.accesses, addr, write, got, want)
	}
	if h.l1.Counters() != h.o1.counters || h.l2.Counters() != h.o2.counters || h.mem.Counters() != h.omem.Counters() {
		t.Fatalf("%s: access %d (addr %d write %v): counters L1 %+v L2 %+v DRAM %+v, oracle %+v %+v %+v",
			h.name, h.accesses, addr, write, h.l1.Counters(), h.l2.Counters(), h.mem.Counters(),
			h.o1.counters, h.o2.counters, h.omem.Counters())
	}
}

func (h *hierarchy) reset() {
	h.l1.Reset()
	h.o1.Reset()
}

// oracleHierarchies are the G4 stack, the golden files' alternative PPC
// L1 (8 KB, 2-way) over a DRAM with a bank count that is not a power of
// two and a narrow interleave, and levels at the associativity limit.
func oracleHierarchies() []*hierarchy {
	six := dram.PPCDRAM()
	six.Banks = 6
	six.InterleaveWords = 8
	small := Config{Name: "l1-8k-2way", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1}
	direct := Config{Name: "l2-direct", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 1, HitLatency: 4}
	wideL1 := Config{Name: "l1-8k-64way", SizeBytes: 8 << 10, LineBytes: 32, Assoc: maxAssoc, HitLatency: 1}
	wideL2 := Config{Name: "l2-256k-64way", SizeBytes: 256 << 10, LineBytes: 32, Assoc: maxAssoc, HitLatency: 9}
	return []*hierarchy{
		newHierarchy("g4", G4L1(), G4L2(), dram.PPCDRAM()),
		newHierarchy("8k-2way/6-banks", small, G4L2(), six),
		newHierarchy("8k-2way/direct-l2", small, direct, dram.PPCDRAM()),
		newHierarchy("64-way", wideL1, wideL2, dram.PPCDRAM()),
	}
}

// TestCacheMatchesOracleStrided drives both models with the corner
// turn's pattern (row-wise reads, column-wise writes, in blocks) and
// with seeded strided walks, some of them negative.
func TestCacheMatchesOracleStrided(t *testing.T) {
	for _, h := range oracleHierarchies() {
		const n, block = 128, 16
		for r0 := 0; r0 < n; r0 += block {
			for c0 := 0; c0 < n; c0 += block {
				for r := r0; r < r0+block; r++ {
					for c := c0; c < c0+block; c++ {
						h.access(t, 4*(r*n+c), false)
						h.access(t, 1<<20+4*(c*n+r), true)
					}
				}
			}
		}
		h.reset()
		rng := rand.New(rand.NewSource(1))
		for walk := 0; walk < 40; walk++ {
			base := rng.Intn(1 << 22)
			stride := 4 * (1 + rng.Intn(4096))
			if rng.Intn(4) == 0 {
				stride = -stride
			}
			write := rng.Intn(3) == 0
			for i := 0; i < 400; i++ {
				h.access(t, base+i*stride, write && i%2 == 0)
			}
		}
	}
}

// TestCacheMatchesOracleRandom drives both models with seeded random
// reads and writes over a footprint a few times the L2, and through a
// reset part way.
func TestCacheMatchesOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, h := range oracleHierarchies() {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60000; i++ {
				if i == 30000 {
					h.reset()
				}
				addr := rng.Intn(1 << 20)
				if rng.Intn(16) == 0 {
					addr = -addr
				}
				h.access(t, addr, rng.Intn(4) == 0)
			}
		}
	}
}
