// Package sram models on-chip SRAM arrays with a capacity budget and a
// fixed per-cycle port bandwidth. It is used for Imagine's 128 KB stream
// register file (SRF) and for the per-tile memories of Raw.
//
// The SRF model includes block-granular allocation: the paper notes that
// "a stream can start at the start of any SRF 128-byte block", so
// allocations are rounded up to the block size and the allocator fails
// when the working set exceeds capacity — which is exactly the property
// that forces the corner-turn matrix (4 MB) to be processed in strips.
package sram

import (
	"errors"
	"fmt"

	"sigkern/internal/sim"
)

// Config describes one SRAM array.
type Config struct {
	// Name labels the array in diagnostics.
	Name string
	// CapacityBytes is the total capacity.
	CapacityBytes int
	// BlockBytes is the allocation granularity (128 for the Imagine SRF).
	BlockBytes int
	// WordsPerCycle is the per-cycle read or write bandwidth in 32-bit
	// words.
	WordsPerCycle int
}

// maxCapacityBytes bounds an override of an array's capacity: 512
// times the largest the machines use (Imagine's 128 KiB SRF).
const maxCapacityBytes = 64 << 20

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return errors.New("sram: CapacityBytes must be positive")
	case c.CapacityBytes > maxCapacityBytes:
		return fmt.Errorf("sram: CapacityBytes %d above the %d limit", c.CapacityBytes, maxCapacityBytes)
	case c.BlockBytes <= 0:
		return errors.New("sram: BlockBytes must be positive")
	case c.WordsPerCycle <= 0:
		return errors.New("sram: WordsPerCycle must be positive")
	case c.CapacityBytes%c.BlockBytes != 0:
		return fmt.Errorf("sram: capacity %d not a multiple of block size %d",
			c.CapacityBytes, c.BlockBytes)
	}
	return nil
}

// ImagineSRF returns the 128 KB stream register file: 128-byte blocks and
// a 16 word/cycle datapath to the clusters (Table 1's on-chip row).
func ImagineSRF() Config {
	return Config{Name: "imagine-srf", CapacityBytes: 128 << 10, BlockBytes: 128, WordsPerCycle: 16}
}

// RawTileMemory returns one Raw tile's data memory (32 KB of the 128 KB
// per-tile SRAM budget; the rest holds tile and switch instructions),
// single-cycle access, one word per cycle.
func RawTileMemory(tile int) Config {
	return Config{Name: fmt.Sprintf("raw-tile%d-mem", tile), CapacityBytes: 32 << 10, BlockBytes: 4, WordsPerCycle: 1}
}

// Alloc is a live allocation in an Array.
type Alloc struct {
	Name  string
	Bytes int // requested size
	Held  int // rounded to block granularity
}

// Array is an SRAM array with an allocator and bandwidth accounting.
// It is not safe for concurrent use.
type Array struct {
	cfg      Config
	used     int
	allocs   map[string]*Alloc
	counters Counters
}

// Counters are an array's event counts over its lifetime.
type Counters struct {
	Allocations, Releases, WordsTransferred uint64
}

// New returns an Array for cfg, panicking on an invalid configuration.
func New(cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Array{cfg: cfg, allocs: make(map[string]*Alloc)}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Used returns the bytes currently held (block-rounded).
func (a *Array) Used() int { return a.used }

// Free returns the bytes currently available.
func (a *Array) Free() int { return a.cfg.CapacityBytes - a.used }

// Allocate reserves size bytes under name. It fails when the rounded size
// does not fit or the name is already allocated.
func (a *Array) Allocate(name string, size int) (*Alloc, error) {
	if size <= 0 {
		return nil, fmt.Errorf("sram %s: allocation %q of %d bytes", a.cfg.Name, name, size)
	}
	if _, ok := a.allocs[name]; ok {
		return nil, fmt.Errorf("sram %s: %q already allocated", a.cfg.Name, name)
	}
	held := ((size + a.cfg.BlockBytes - 1) / a.cfg.BlockBytes) * a.cfg.BlockBytes
	if held > a.Free() {
		return nil, fmt.Errorf("sram %s: %q needs %d bytes, only %d free",
			a.cfg.Name, name, held, a.Free())
	}
	al := &Alloc{Name: name, Bytes: size, Held: held}
	a.allocs[name] = al
	a.used += held
	a.counters.Allocations++
	return al, nil
}

// Release frees the allocation under name; unknown names are an error so
// double frees in kernel schedules are caught.
func (a *Array) Release(name string) error {
	al, ok := a.allocs[name]
	if !ok {
		return fmt.Errorf("sram %s: release of unknown allocation %q", a.cfg.Name, name)
	}
	a.used -= al.Held
	delete(a.allocs, name)
	a.counters.Releases++
	return nil
}

// ReleaseAll frees every allocation.
func (a *Array) ReleaseAll() {
	for name := range a.allocs {
		delete(a.allocs, name)
	}
	a.used = 0
}

// TransferCycles returns the cycles to move n words through the array's
// ports at full bandwidth.
func (a *Array) TransferCycles(n uint64) uint64 {
	a.counters.WordsTransferred += n
	return sim.CeilDiv(n, uint64(a.cfg.WordsPerCycle))
}

// Counters returns the array's event counts.
func (a *Array) Counters() Counters { return a.counters }
