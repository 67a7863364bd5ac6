// Package cache implements a set-associative, write-back, write-allocate
// cache simulator with LRU replacement, composable into multi-level
// hierarchies backed by a DRAM controller. It provides the memory system
// of the PowerPC G4 baseline and the data-cache mode that Raw's MIMD
// kernels use (the paper's CSLC on Raw routes data "to local memories
// through cache misses").
//
// Addresses are byte addresses. Timing is returned per access: a hit
// costs the level's hit latency; a miss adds the lower level's cost for
// the whole line. Overlap of outstanding misses is the responsibility of
// the machine model (the G4 model divides stall time by its
// memory-level-parallelism factor), because overlap depends on the
// instruction stream, not on the cache.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"sigkern/internal/dram"
)

// Level is anything that can serve a line-sized access: a lower cache or
// a DRAM backend.
type Level interface {
	// Access serves a read or write of the line containing byte address
	// addr and returns its latency in cycles.
	Access(addr int, write bool) uint64
	// LineBytes returns the level's line size.
	LineBytes() int
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int
}

// Validate reports whether the configuration describes a realizable cache.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return errors.New("cache: sizes and associativity must be positive")
	case c.LineBytes < 4:
		// Lines are filled from DRAM in whole 32-bit words.
		return fmt.Errorf("cache %s: LineBytes %d below one 4-byte word", c.Name, c.LineBytes)
	case c.HitLatency < 0:
		return errors.New("cache: negative hit latency")
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc %d",
			c.Name, c.SizeBytes, c.LineBytes*c.Assoc)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case bits.OnesCount(uint(c.SizeBytes/(c.LineBytes*c.Assoc))) != 1:
		return fmt.Errorf("cache %s: set count not a power of two", c.Name)
	}
	return nil
}

// G4L1 returns the PowerPC G4's 32 KB, 8-way, 32-byte-line L1 data cache.
func G4L1() Config {
	return Config{Name: "g4-l1d", SizeBytes: 32 << 10, LineBytes: 32, Assoc: 8, HitLatency: 1}
}

// G4L2 returns the G4's 256 KB on-chip L2.
func G4L2() Config {
	return Config{Name: "g4-l2", SizeBytes: 256 << 10, LineBytes: 32, Assoc: 8, HitLatency: 9}
}

// RawTileCache returns the cache configuration a Raw tile presents over
// its 32 KB data SRAM when running in cache-miss (MIMD) mode.
func RawTileCache(tile int) Config {
	return Config{
		Name: fmt.Sprintf("raw-tile%d-cache", tile), SizeBytes: 32 << 10,
		LineBytes: 32, Assoc: 2, HitLatency: 0,
	}
}

type line struct {
	tag   int
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Counters are one level's event counts since the last Reset.
type Counters struct {
	Hits, Misses, Writebacks uint64
}

// Cache is one simulated cache level. It is not safe for concurrent use.
type Cache struct {
	cfg      Config
	sets     [][]line
	lower    Level
	tick     uint64
	counters Counters
}

// New returns a cache over the given lower level. It panics on an invalid
// configuration (configurations are constants in this repository).
func New(cfg Config, lower Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if lower == nil {
		panic("cache: nil lower level")
	}
	c := &Cache{cfg: cfg, lower: lower}
	c.Reset()
	return c
}

// Reset invalidates every line and clears the counters. The set arrays
// are allocated once (over a single flat backing slice) and zeroed on
// later resets: the simulators reset between every kernel run, and the
// PPC hierarchy alone holds over a thousand sets.
func (c *Cache) Reset() {
	nsets := c.cfg.SizeBytes / (c.cfg.LineBytes * c.cfg.Assoc)
	if len(c.sets) != nsets {
		backing := make([]line, nsets*c.cfg.Assoc)
		c.sets = make([][]line, nsets)
		for i := range c.sets {
			c.sets[i] = backing[i*c.cfg.Assoc : (i+1)*c.cfg.Assoc : (i+1)*c.cfg.Assoc]
		}
	} else {
		for i := range c.sets {
			clear(c.sets[i])
		}
	}
	c.tick = 0
	c.counters = Counters{}
	if lc, ok := c.lower.(interface{ Reset() }); ok {
		lc.Reset()
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes implements Level.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Counters returns this level's hits, misses and writebacks.
func (c *Cache) Counters() Counters { return c.counters }

// Access implements Level: it serves the access and returns its latency.
func (c *Cache) Access(addr int, write bool) uint64 {
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

	// Choose the LRU victim.
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
		// Write back the victim. Writebacks are buffered in real machines;
		// we charge the lower level's occupancy but not its full latency.
		victimAddr := (ways[victim].tag*len(c.sets) + set) * c.cfg.LineBytes
		c.lower.Access(victimAddr, true)
		c.counters.Writebacks++
	}
	lat += c.lower.Access(addr, false)
	ways[victim] = line{tag: tag, valid: true, dirty: write, used: c.tick}
	return lat
}

// MissRate returns misses / (hits + misses), or 0 when idle.
func (c *Cache) MissRate() float64 {
	h, m := c.counters.Hits, c.counters.Misses
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}

// DRAMBackend adapts a dram.Controller as the lowest Level of a
// hierarchy. Line fills stream LineWords words per fetch.
type DRAMBackend struct {
	Ctl       *dram.Controller
	LineWords int
}

// NewDRAMBackend returns a backend fetching lines of lineBytes from ctl.
func NewDRAMBackend(ctl *dram.Controller, lineBytes int) *DRAMBackend {
	if lineBytes%4 != 0 {
		panic("cache: line size must be a multiple of 4 bytes")
	}
	return &DRAMBackend{Ctl: ctl, LineWords: lineBytes / 4}
}

// Access implements Level by fetching or writing one full line.
func (b *DRAMBackend) Access(addr int, write bool) uint64 {
	return b.Ctl.LineFetch(addr/4, b.LineWords)
}

// LineBytes implements Level.
func (b *DRAMBackend) LineBytes() int { return b.LineWords * 4 }

// Reset rewinds the underlying controller.
func (b *DRAMBackend) Reset() { b.Ctl.Reset() }

// FixedLatency is a trivial Level with constant access time; useful in
// tests and for modeling an idealized next level.
type FixedLatency struct {
	Latency uint64
	Line    int
}

// Access implements Level.
func (f *FixedLatency) Access(addr int, write bool) uint64 { return f.Latency }

// LineBytes implements Level.
func (f *FixedLatency) LineBytes() int {
	if f.Line == 0 {
		return 32
	}
	return f.Line
}
