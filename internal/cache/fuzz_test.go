package cache

import (
	"testing"

	"sigkern/internal/dram"
)

// FuzzAccessInvariants drives the cache with arbitrary address streams
// and checks the structural invariants: accounting adds up, immediate
// re-access always hits, and latency never drops below the hit time.
func FuzzAccessInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, true)
	f.Add([]byte{255, 0, 255, 0}, false)
	f.Fuzz(func(t *testing.T, addrs []byte, write bool) {
		c := NewOverDRAM(G4L1(), dram.NewController(dram.PPCDRAM()))
		var n uint64
		for i, a := range addrs {
			addr := (int(a) << 7) | (i & 0x7f)
			lat := c.Access(addr, write && i%2 == 0)
			if lat < uint64(c.Config().HitLatency) {
				t.Fatalf("latency %d below hit time", lat)
			}
			n++
			if lat2 := c.Access(addr, false); lat2 != uint64(c.Config().HitLatency) {
				t.Fatalf("immediate re-access missed (lat %d)", lat2)
			}
			n++
		}
		s := c.Counters()
		if s.Hits+s.Misses != n {
			t.Fatalf("accounting: %d+%d != %d", s.Hits, s.Misses, n)
		}
	})
}
