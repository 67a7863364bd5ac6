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

// Absolute upper bounds on a cache level. They sit far above any real
// or swept cache, and they bound the memory one configuration can pin:
// the largest legal level holds 4M ways of 8 bytes. Assoc also bounds
// the cost of one hit, which moves its way to the front of the set.
const (
	maxSizeBytes  = 16 << 20
	maxLineBytes  = 4 << 10
	maxAssoc      = 64
	maxHitLatency = 10_000
)

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
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("cache %s: SizeBytes %d above the %d limit", c.Name, c.SizeBytes, maxSizeBytes)
	case c.LineBytes > maxLineBytes:
		return fmt.Errorf("cache %s: LineBytes %d above the %d limit", c.Name, c.LineBytes, maxLineBytes)
	case c.Assoc > maxAssoc:
		return fmt.Errorf("cache %s: Assoc %d above the %d limit", c.Name, c.Assoc, maxAssoc)
	case c.LineBytes < 4:
		// Lines are filled from DRAM in whole 32-bit words.
		return fmt.Errorf("cache %s: LineBytes %d below one 4-byte word", c.Name, c.LineBytes)
	case c.HitLatency < 0:
		return errors.New("cache: negative hit latency")
	case c.HitLatency > maxHitLatency:
		return fmt.Errorf("cache %s: HitLatency %d above the %d limit", c.Name, c.HitLatency, maxHitLatency)
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

// A way is one packed word: the line's tag above two state bits. An
// invalid way is zero.
const (
	dirtyBit = 1 << iota
	validBit
	tagShift = iota
)

// Counters are one level's event counts since the last Reset.
type Counters struct {
	Hits, Misses, Writebacks uint64
}

// Cache is one simulated cache level. It is not safe for concurrent use.
//
// Each set is kept in recency order, most recently used way first, with
// the invalid ways at its tail. A hit moves its way to the front; a miss
// evicts the last way and inserts the new line at the front. That is
// exact LRU with an O(1) victim: the last way is invalid whenever any
// way is, and otherwise it is the least recently used.
type Cache struct {
	cfg   Config
	ways  []uint64 // set s occupies ways[s*Assoc : (s+1)*Assoc]
	lower *Cache   // next level, or nil when mem is the next level
	mem   *dram.Controller

	lineShift, setShift uint
	setMask             int
	lineWords           int // DRAM words per line fill
	counters            Counters
}

// New returns a cache whose misses go to the lower cache level. It
// panics on an invalid configuration (configurations are validated
// before any machine is built).
func New(cfg Config, lower *Cache) *Cache {
	if lower == nil {
		panic("cache: nil lower level")
	}
	return newCache(cfg, lower, nil)
}

// NewOverDRAM returns a cache whose misses fetch whole lines from mem.
func NewOverDRAM(cfg Config, mem *dram.Controller) *Cache {
	if mem == nil {
		panic("cache: nil DRAM controller")
	}
	return newCache(cfg, nil, mem)
}

func newCache(cfg Config, lower *Cache, mem *dram.Controller) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{
		cfg:       cfg,
		ways:      make([]uint64, nsets*cfg.Assoc),
		lower:     lower,
		mem:       mem,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(nsets))),
		setMask:   nsets - 1,
		lineWords: cfg.LineBytes / 4,
	}
	c.Reset()
	return c
}

// Reset invalidates every line, clears the counters and resets the
// levels below. The way array is allocated once and zeroed on later
// resets: the simulators reset between every kernel run, and the PPC
// hierarchy alone holds over a thousand sets.
func (c *Cache) Reset() {
	clear(c.ways)
	c.counters = Counters{}
	if c.lower != nil {
		c.lower.Reset()
	} else {
		c.mem.Reset()
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Counters returns this level's hits, misses and writebacks.
func (c *Cache) Counters() Counters { return c.counters }

// Access serves a read or write of the line containing byte address
// addr and returns its latency in cycles.
func (c *Cache) Access(addr int, write bool) uint64 {
	if addr < 0 {
		addr = -addr
	}
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	want := uint64(lineAddr>>c.setShift)<<tagShift | validBit
	base := set * c.cfg.Assoc
	ways := c.ways[base : base+c.cfg.Assoc]

	// One pass finds the line and moves the ways ahead of it one place
	// back, carrying each in a register; the line found (or, on a miss,
	// the new one) then takes the front. A miss carries out the last way,
	// the victim, unless an invalid way ended the pass: no valid way
	// follows one, and the pass displaced it instead.
	carry := want
	for i, w := range ways {
		ways[i] = carry
		if w&^dirtyBit == want {
			if write {
				w |= dirtyBit
			}
			ways[0] = w
			c.counters.Hits++
			return uint64(c.cfg.HitLatency)
		}
		if carry = w; w == 0 {
			break
		}
	}
	c.counters.Misses++
	if write {
		ways[0] |= dirtyBit
	}

	lat := uint64(c.cfg.HitLatency)
	if victim := carry; victim&(validBit|dirtyBit) == validBit|dirtyBit {
		// Write back the victim. Writebacks are buffered in real machines;
		// we charge the lower level's occupancy but not its full latency.
		victimAddr := (int(victim>>tagShift)<<c.setShift | set) << c.lineShift
		if c.lower != nil {
			c.lower.Access(victimAddr, true)
		} else {
			c.mem.LineFetch(victimAddr>>2, c.lineWords)
		}
		c.counters.Writebacks++
	}
	// Fetch the line from the level below: the lower cache, or a
	// whole-line fill from DRAM (a writeback above is charged as a fill
	// too).
	if c.lower != nil {
		return lat + c.lower.Access(addr, false)
	}
	return lat + c.mem.LineFetch(addr>>2, c.lineWords)
}

// MissRate returns misses / (hits + misses), or 0 when idle.
func (c *Cache) MissRate() float64 {
	h, m := c.counters.Hits, c.counters.Misses
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}
