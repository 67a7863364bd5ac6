package cache

import (
	"testing"
	"testing/quick"

	"sigkern/internal/dram"
)

func newL1(t *testing.T) *Cache {
	t.Helper()
	return NewOverDRAM(G4L1(), dram.NewController(dram.PPCDRAM()))
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{G4L1(), G4L2(), RawTileCache(0)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 8},
		{SizeBytes: 32 << 10, LineBytes: 33, Assoc: 8}, // not power of two
		{SizeBytes: 48 << 10, LineBytes: 32, Assoc: 5}, // set count not pow2
		{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 8, HitLatency: -1},
		{SizeBytes: 32 << 10, LineBytes: 2, Assoc: 8},  // line below one word
		{SizeBytes: 16 << 30, LineBytes: 32, Assoc: 8}, // 16 GiB
		{SizeBytes: 32 << 20, LineBytes: 32, Assoc: 8}, // above the size limit
		{SizeBytes: 64 << 10, LineBytes: 8 << 10, Assoc: 1},
		{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 128},
		{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 8, HitLatency: 1 << 20},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	for _, c := range []Config{
		{Name: "limit", SizeBytes: maxSizeBytes, LineBytes: 32, Assoc: maxAssoc, HitLatency: maxHitLatency},
		{Name: "wide-line", SizeBytes: 64 << 10, LineBytes: maxLineBytes, Assoc: 1},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config at the bounds rejected: %v", err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := newL1(t)
	lat1 := c.Access(0x1000, false)
	if lat1 <= uint64(c.Config().HitLatency) {
		t.Fatalf("cold access latency %d, want > hit latency", lat1)
	}
	lat2 := c.Access(0x1004, false) // same 32-byte line
	if lat2 != uint64(c.Config().HitLatency) {
		t.Fatalf("second access latency %d, want hit latency %d", lat2, c.Config().HitLatency)
	}
	if s := c.Counters(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestSpatialLocalityWithinLine(t *testing.T) {
	c := newL1(t)
	c.Access(0, false)
	for b := 4; b < 32; b += 4 {
		if lat := c.Access(b, false); lat != uint64(c.Config().HitLatency) {
			t.Fatalf("offset %d missed within a fetched line", b)
		}
	}
	if lat := c.Access(32, false); lat <= uint64(c.Config().HitLatency) {
		t.Fatal("next line did not miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped-ish scenario: fill one set beyond associativity.
	cfg := Config{Name: "t", SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2, HitLatency: 1}
	c := NewOverDRAM(cfg, dram.NewController(dram.PPCDRAM()))
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc) // 16 sets
	setStride := nsets * cfg.LineBytes                   // same-set stride

	c.Access(0*setStride, false) // A
	c.Access(1*setStride, false) // B
	c.Access(0*setStride, false) // touch A; B is now LRU
	c.Access(2*setStride, false) // C evicts B
	if lat := c.Access(0, false); lat != 1 {
		t.Fatal("A was evicted but should have been MRU")
	}
	if lat := c.Access(1*setStride, false); lat == 1 {
		t.Fatal("B hit but should have been evicted (LRU)")
	}
}

func TestWritebackOfDirtyVictim(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 1, HitLatency: 1}
	c := NewOverDRAM(cfg, dram.NewController(dram.PPCDRAM()))
	c.Access(0, true)    // dirty line in set 0
	c.Access(256, false) // evicts it -> writeback
	if c.Counters().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Counters().Writebacks)
	}
	// Clean eviction: no writeback.
	c.Access(512, false)
	if c.Counters().Writebacks != 1 {
		t.Fatalf("clean eviction caused writeback")
	}
}

func TestTwoLevelHierarchyOverDRAM(t *testing.T) {
	mem := dram.NewController(dram.PPCDRAM())
	l2 := NewOverDRAM(G4L2(), mem)
	l1 := New(G4L1(), l2)

	cold := l1.Access(0, false)
	hitL1 := l1.Access(4, false)
	l1.Reset() // also resets L2 and DRAM
	if l2.Counters().Misses != 0 {
		t.Fatal("Reset did not propagate to L2")
	}
	if mem.Counters().LineFetches != 0 {
		t.Fatal("Reset did not propagate to DRAM")
	}
	if cold <= hitL1 {
		t.Fatalf("cold %d not slower than L1 hit %d", cold, hitL1)
	}
	// After reset, walk a range larger than L1 but inside L2: second pass
	// should hit in L2 (latency between L1 hit and DRAM).
	span := 64 << 10 // 64 KB: 2x L1, 1/4 of L2
	for a := 0; a < span; a += 32 {
		l1.Access(a, false)
	}
	lat := l1.Access(0, false) // L1 evicted, L2 holds it
	if lat <= uint64(G4L1().HitLatency) {
		t.Fatal("expected L1 miss after capacity eviction")
	}
	if lat > 2*uint64(G4L2().HitLatency)+uint64(G4L1().HitLatency) {
		t.Fatalf("expected L2 hit, got DRAM-like latency %d", lat)
	}
}

func TestStridedColumnWalkThrashes(t *testing.T) {
	// The corner-turn access pattern: walking a column of a 1024x1024
	// row-major int32 matrix touches a new 4 KB-separated line each time.
	// Every access must miss in a 32 KB L1 — this is the behaviour that
	// produces the PPC's 34M-cycle corner turn in the paper.
	c := newL1(t)
	const rowBytes = 4096
	for r := 0; r < 1024; r++ {
		c.Access(r*rowBytes, false)
	}
	if mr := c.MissRate(); mr < 0.99 {
		t.Fatalf("column walk miss rate = %.3f, want ~1.0", mr)
	}
}

func TestSequentialWalkMostlyHits(t *testing.T) {
	c := newL1(t)
	for a := 0; a < 1<<16; a += 4 {
		c.Access(a, false)
	}
	// 1 miss per 8 accesses (32-byte lines, 4-byte words).
	if mr := c.MissRate(); mr > 0.13 {
		t.Fatalf("sequential miss rate = %.3f, want ~0.125", mr)
	}
}

// TestDRAMBackendLineBytes pins the DRAM-backed level: a miss fills one
// whole line of LineBytes/4 words from the controller.
func TestDRAMBackendLineBytes(t *testing.T) {
	mem := dram.NewController(dram.PPCDRAM())
	c := NewOverDRAM(Config{Name: "t", SizeBytes: 8 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}, mem)
	if c.Config().LineBytes != 64 {
		t.Fatalf("LineBytes = %d", c.Config().LineBytes)
	}
	if lat := c.Access(0, false); lat <= 1 {
		t.Fatal("DRAM access free")
	}
	if got := mem.Counters(); got.LineFetches != 1 || got.WordsRead != 16 {
		t.Fatalf("one miss fetched %+v, want one 16-word line", got)
	}
}

func TestNewPanicsOnNilLower(t *testing.T) {
	for name, build := range map[string]func(){
		"New":         func() { New(G4L1(), nil) },
		"NewOverDRAM": func() { NewOverDRAM(G4L1(), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a nil lower level did not panic", name)
				}
			}()
			build()
		}()
	}
}

// Property: hits + misses == number of accesses, and re-accessing the
// same address immediately always hits.
func TestAccessAccountingProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewOverDRAM(G4L1(), dram.NewController(dram.PPCDRAM()))
		n := uint64(0)
		for _, a := range addrs {
			c.Access(int(a%1<<24), false)
			n++
			if lat := c.Access(int(a%1<<24), false); lat != uint64(c.Config().HitLatency) {
				return false
			}
			n++
		}
		s := c.Counters()
		return s.Hits+s.Misses == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkL1SequentialWalk(b *testing.B) {
	c := NewOverDRAM(G4L1(), dram.NewController(dram.PPCDRAM()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for a := 0; a < 1<<16; a += 4 {
			c.Access(a, false)
		}
	}
}
