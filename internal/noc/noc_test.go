package noc

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := RawMesh().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Width: 0, Height: 4, BaseLatency: 3, HopLatency: 1, MinPacketWords: 4},
		{Width: 4, Height: 4, BaseLatency: 0, HopLatency: 1, MinPacketWords: 4},
		{Width: 4, Height: 4, BaseLatency: 3, HopLatency: -1, MinPacketWords: 4},
		{Width: 4, Height: 4, BaseLatency: 3, HopLatency: 1, MinPacketWords: 0},
		{Width: maxEdge + 1, Height: 4, BaseLatency: 3, HopLatency: 1, MinPacketWords: 4},
		{Width: 4, Height: maxEdge + 1, BaseLatency: 3, HopLatency: 1, MinPacketWords: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestXYAndTileAtRoundTrip(t *testing.T) {
	m := NewMesh(RawMesh())
	for tile := 0; tile < m.Tiles(); tile++ {
		x, y := m.XY(tile)
		if m.TileAt(x, y) != tile {
			t.Fatalf("round trip failed for tile %d", tile)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	m := NewMesh(RawMesh())
	if h := m.Hops(m.TileAt(0, 0), m.TileAt(3, 3)); h != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", h)
	}
	if h := m.Hops(5, 5); h != 0 {
		t.Fatalf("self hops = %d, want 0", h)
	}
	if h := m.Hops(m.TileAt(1, 1), m.TileAt(2, 1)); h != 1 {
		t.Fatalf("neighbour hops = %d, want 1", h)
	}
}

func TestStaticLatencyMatchesPaper(t *testing.T) {
	m := NewMesh(RawMesh())
	// "latency of three cycles between nearest neighbor tiles" ...
	if lat := m.StaticLatency(0, 1); lat != 3 {
		t.Fatalf("nearest-neighbour latency = %d, want 3", lat)
	}
	// "... one additional cycle of latency for each hop".
	if lat := m.StaticLatency(m.TileAt(0, 0), m.TileAt(3, 0)); lat != 5 {
		t.Fatalf("3-hop latency = %d, want 5", lat)
	}
	if lat := m.StaticLatency(m.TileAt(0, 0), m.TileAt(3, 3)); lat != 8 {
		t.Fatalf("6-hop latency = %d, want 8", lat)
	}
}

func TestSendStaticPipelines(t *testing.T) {
	m := NewMesh(RawMesh())
	// 100 words between neighbours: head latency 3, then 1 word/cycle.
	arrive := m.SendStatic(0, 1, 100, 0)
	if arrive != 3+99 {
		t.Fatalf("100-word stream arrives at %d, want 102", arrive)
	}
}

func TestSendStaticContentionSerializes(t *testing.T) {
	m := NewMesh(RawMesh())
	// Two streams share the link 0->1.
	a := m.SendStatic(0, 1, 50, 0)
	b := m.SendStatic(0, 1, 50, 0)
	if b <= a {
		t.Fatalf("contending stream not delayed: %d <= %d", b, a)
	}
	if m.Counters().StaticLinkStalls == 0 {
		t.Fatal("no link stalls recorded under contention")
	}
	// Disjoint routes do not contend.
	m.Reset()
	m.SendStatic(m.TileAt(0, 0), m.TileAt(1, 0), 50, 0)
	c := m.SendStatic(m.TileAt(0, 1), m.TileAt(1, 1), 50, 0)
	if c != 3+49 {
		t.Fatalf("disjoint stream delayed: arrives %d", c)
	}
}

func TestSendStaticZeroWords(t *testing.T) {
	m := NewMesh(RawMesh())
	if got := m.SendStatic(0, 5, 0, 7); got != 7 {
		t.Fatalf("zero-word send returned %d, want start cycle 7", got)
	}
}

func TestPacketPadding(t *testing.T) {
	m := NewMesh(RawMesh())
	// 1 payload word + 1 header = 2 < MinPacketWords 4: padded.
	if got := m.PacketCycles(1); got != 4 {
		t.Fatalf("PacketCycles(1) = %d, want 4 (padded)", got)
	}
	if got := m.PacketCycles(8); got != 9 {
		t.Fatalf("PacketCycles(8) = %d, want 9 (header+payload)", got)
	}
}

func TestDynamicSlowerThanStatic(t *testing.T) {
	ms := NewMesh(RawMesh())
	md := NewMesh(RawMesh())
	from, to := ms.TileAt(0, 0), ms.TileAt(3, 3)
	s := ms.SendStatic(from, to, 8, 0)
	d := md.SendPacket(from, to, 8, 0)
	if d <= s {
		t.Fatalf("dynamic packet (%d) not slower than static stream (%d)", d, s)
	}
}

func TestSendPacketSameTile(t *testing.T) {
	m := NewMesh(RawMesh())
	if got := m.SendPacket(3, 3, 2, 10); got <= 10 {
		t.Fatalf("same-tile packet arrived at start: %d", got)
	}
}

func TestPortTileOnBoundary(t *testing.T) {
	m := NewMesh(RawMesh())
	if m.PortCount() != 16 {
		t.Fatalf("PortCount = %d, want 16", m.PortCount())
	}
	seen := map[int]int{}
	for p := 0; p < m.PortCount(); p++ {
		tile := m.PortTile(p)
		x, y := m.XY(tile)
		if x != 0 && x != 3 && y != 0 && y != 3 {
			t.Fatalf("port %d attaches to interior tile %d", p, tile)
		}
		seen[tile]++
	}
	// 16 ports over 12 boundary tiles: corners host two ports.
	if len(seen) != 12 {
		t.Fatalf("ports attach to %d distinct tiles, want 12", len(seen))
	}
}

func TestPortTileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PortTile(99) did not panic")
		}
	}()
	NewMesh(RawMesh()).PortTile(99)
}

func TestTileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XY(16) did not panic")
		}
	}()
	NewMesh(RawMesh()).XY(16)
}

// Property: static latency is symmetric and obeys the base+hop formula.
func TestStaticLatencyProperty(t *testing.T) {
	m := NewMesh(RawMesh())
	f := func(a, b uint8) bool {
		from, to := int(a)%16, int(b)%16
		l1 := m.StaticLatency(from, to)
		l2 := m.StaticLatency(to, from)
		if l1 != l2 {
			return false
		}
		h := m.Hops(from, to)
		if h == 0 {
			return l1 == 1
		}
		return l1 == uint64(3+(h-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arrival is never before start + contention-free latency.
func TestSendStaticLowerBoundProperty(t *testing.T) {
	f := func(pairs []uint8, words uint8) bool {
		m := NewMesh(RawMesh())
		w := int(words)%64 + 1
		for i := 0; i+1 < len(pairs); i += 2 {
			from, to := int(pairs[i])%16, int(pairs[i+1])%16
			arrive := m.SendStatic(from, to, w, 0)
			if arrive < m.StaticLatency(from, to)+uint64(w-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
