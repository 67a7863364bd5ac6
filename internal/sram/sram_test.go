package sram

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := ImagineSRF().Validate(); err != nil {
		t.Fatalf("ImagineSRF invalid: %v", err)
	}
	bad := []Config{
		{CapacityBytes: 0, BlockBytes: 128, WordsPerCycle: 1},
		{CapacityBytes: 1024, BlockBytes: 0, WordsPerCycle: 1},
		{CapacityBytes: 1024, BlockBytes: 128, WordsPerCycle: 0},
		{CapacityBytes: 1000, BlockBytes: 128, WordsPerCycle: 1}, // not multiple
		{CapacityBytes: maxCapacityBytes + 128, BlockBytes: 128, WordsPerCycle: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestAllocateRoundsToBlock(t *testing.T) {
	a := New(ImagineSRF())
	al, err := a.Allocate("s", 100)
	if err != nil {
		t.Fatal(err)
	}
	if al.Held != 128 {
		t.Fatalf("Held = %d, want 128 (block-rounded)", al.Held)
	}
	if a.Used() != 128 {
		t.Fatalf("Used = %d, want 128", a.Used())
	}
}

func TestAllocateOverCapacityFails(t *testing.T) {
	a := New(ImagineSRF())
	if _, err := a.Allocate("big", 128<<10+1); err == nil {
		t.Fatal("allocation over capacity succeeded")
	}
	// The 4 MB corner-turn matrix must NOT fit in the 128 KB SRF: this is
	// the paper's reason for strip-mining the corner turn on Imagine.
	if _, err := a.Allocate("matrix", 4<<20); err == nil {
		t.Fatal("4 MB matrix fit in 128 KB SRF")
	}
}

func TestDuplicateNameFails(t *testing.T) {
	a := New(ImagineSRF())
	if _, err := a.Allocate("x", 256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate("x", 256); err == nil {
		t.Fatal("duplicate allocation succeeded")
	}
}

func TestReleaseRestoresSpace(t *testing.T) {
	a := New(ImagineSRF())
	free0 := a.Free()
	if _, err := a.Allocate("x", 4096); err != nil {
		t.Fatal(err)
	}
	if err := a.Release("x"); err != nil {
		t.Fatal(err)
	}
	if a.Free() != free0 {
		t.Fatalf("Free = %d after release, want %d", a.Free(), free0)
	}
	if err := a.Release("x"); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestReleaseAll(t *testing.T) {
	a := New(ImagineSRF())
	for _, n := range []string{"a", "b", "c"} {
		if _, err := a.Allocate(n, 1024); err != nil {
			t.Fatal(err)
		}
	}
	a.ReleaseAll()
	if a.Used() != 0 {
		t.Fatalf("Used = %d after ReleaseAll", a.Used())
	}
}

func TestTransferCycles(t *testing.T) {
	a := New(ImagineSRF()) // 16 words/cycle
	if got := a.TransferCycles(160); got != 10 {
		t.Fatalf("TransferCycles(160) = %d, want 10", got)
	}
	if got := a.TransferCycles(1); got != 1 {
		t.Fatalf("TransferCycles(1) = %d, want 1", got)
	}
	if got := a.Counters().WordsTransferred; got != 161 {
		t.Fatalf("words_transferred = %d, want 161", got)
	}
}

func TestRawTileMemoryConfig(t *testing.T) {
	c := RawTileMemory(3)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.CapacityBytes != 32<<10 {
		t.Fatalf("tile memory capacity = %d, want 32 KB", c.CapacityBytes)
	}
	// A 64x64 word corner-turn block (16 KB) must fit in one tile memory,
	// per the Raw corner-turn algorithm in the paper.
	a := New(c)
	if _, err := a.Allocate("block", 64*64*4); err != nil {
		t.Fatalf("64x64 block does not fit in tile memory: %v", err)
	}
}

// Property: used + free == capacity under any interleaving of allocs.
func TestAccountingInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := New(ImagineSRF())
		for i, s := range sizes {
			size := int(s)%8192 + 1
			_, _ = a.Allocate(name(i), size)
			if a.Used()+a.Free() != a.Config().CapacityBytes {
				return false
			}
			if a.Used() < 0 || a.Free() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26%10)) }
