// Package noc models Raw's on-chip networks: a 2-D mesh with a static
// (scalar-operand) network routed by per-tile switch processors, and a
// dynamic packet network used for cache misses.
//
// Timing follows the paper's description: the static network delivers one
// word per cycle per link with a three-cycle latency between nearest
// neighbours and one additional cycle per extra hop. Routes are
// dimension-ordered (X then Y); each link carries one word per cycle and
// contention is modeled with per-link reservations, so two streams that
// share a link serialize. The dynamic network moves packets (header +
// payload, padded to a minimum size) with per-hop store-and-forward
// latency.
package noc

import (
	"errors"
	"fmt"
)

// Config describes a mesh.
type Config struct {
	// Width and Height give the tile grid dimensions.
	Width, Height int
	// BaseLatency is the static-network latency between nearest
	// neighbours (3 on Raw).
	BaseLatency int
	// HopLatency is the additional latency per hop beyond the first (1).
	HopLatency int
	// MinPacketWords is the dynamic network's minimum packet size
	// including the header; smaller messages are padded (the paper:
	// "if the data is smaller than a packet, dummy data is added").
	MinPacketWords int
	// HeaderWords is the dynamic-network per-packet header size.
	HeaderWords int
}

// maxEdge bounds Width and Height: twice the largest mesh edge the DSE
// axes sweep (16). Overrides arrive from the network, and building a
// Raw machine assigns every tile a port, tiles x ports steps.
const maxEdge = 32

// Validate reports whether the mesh is realizable.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return errors.New("noc: mesh dimensions must be positive")
	case c.Width > maxEdge:
		return fmt.Errorf("noc: Width %d above the %d limit", c.Width, maxEdge)
	case c.Height > maxEdge:
		return fmt.Errorf("noc: Height %d above the %d limit", c.Height, maxEdge)
	case c.BaseLatency < 1:
		return errors.New("noc: BaseLatency must be at least 1")
	case c.HopLatency < 0:
		return errors.New("noc: negative HopLatency")
	case c.MinPacketWords < 1 || c.HeaderWords < 0:
		return errors.New("noc: invalid packet parameters")
	}
	return nil
}

// RawMesh returns the 4x4 Raw configuration.
func RawMesh() Config {
	return Config{Width: 4, Height: 4, BaseLatency: 3, HopLatency: 1, MinPacketWords: 4, HeaderWords: 1}
}

// link identifies one directed mesh link (or a port attachment).
type link struct {
	from, to int
}

// Counters are a mesh's event counts since the last Reset.
type Counters struct {
	StaticLinkStalls, StaticWords            uint64
	DynamicLinkStalls, Packets, DynamicWords uint64
}

// Mesh is a simulated mesh network. It is not safe for concurrent use.
type Mesh struct {
	cfg      Config
	linkFree map[link]uint64
	counters Counters
	// routeBuf is the reusable backing for route: routes are consumed
	// before the next call (the mesh is single-threaded by contract),
	// and cache fills route millions of packets per kernel.
	routeBuf []link
}

// NewMesh returns a mesh for cfg, panicking on invalid configuration.
func NewMesh(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Mesh{cfg: cfg, linkFree: make(map[link]uint64)}
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Tiles returns the tile count.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// Reset clears all link reservations and counters.
func (m *Mesh) Reset() {
	m.linkFree = make(map[link]uint64)
	m.counters = Counters{}
}

// Counters returns the event counts accumulated since the last Reset.
func (m *Mesh) Counters() Counters { return m.counters }

// XY returns tile t's coordinates.
func (m *Mesh) XY(t int) (x, y int) {
	m.checkTile(t)
	return t % m.cfg.Width, t / m.cfg.Width
}

// TileAt returns the tile index at (x, y).
func (m *Mesh) TileAt(x, y int) int {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		panic(fmt.Sprintf("noc: coordinates (%d,%d) outside %dx%d mesh", x, y, m.cfg.Width, m.cfg.Height))
	}
	return y*m.cfg.Width + x
}

func (m *Mesh) checkTile(t int) {
	if t < 0 || t >= m.Tiles() {
		panic(fmt.Sprintf("noc: tile %d outside %dx%d mesh", t, m.cfg.Width, m.cfg.Height))
	}
}

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.XY(from)
	tx, ty := m.XY(to)
	dx, dy := tx-fx, ty-fy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// route returns the dimension-ordered (X then Y) list of links from one
// tile to another. The route is empty when from == to. The returned
// slice aliases a mesh-owned buffer valid until the next route call.
func (m *Mesh) route(from, to int) []link {
	fx, fy := m.XY(from)
	tx, ty := m.XY(to)
	links := m.routeBuf[:0]
	cur := from
	for x := fx; x != tx; {
		step := 1
		if tx < x {
			step = -1
		}
		next := m.TileAt(x+step, fy)
		links = append(links, link{cur, next})
		cur = next
		x += step
	}
	for y := fy; y != ty; {
		step := 1
		if ty < y {
			step = -1
		}
		next := m.TileAt(tx, y+step)
		links = append(links, link{cur, next})
		cur = next
		y += step
	}
	m.routeBuf = links
	return links
}

// StaticLatency returns the contention-free static-network latency for a
// single word between two tiles: BaseLatency for nearest neighbours plus
// HopLatency per additional hop. Same-tile transfers cost one cycle.
func (m *Mesh) StaticLatency(from, to int) uint64 {
	h := m.Hops(from, to)
	if h == 0 {
		return 1
	}
	return uint64(m.cfg.BaseLatency + (h-1)*m.cfg.HopLatency)
}

// SendStatic routes words over the static network starting no earlier
// than cycle start and returns the cycle at which the last word arrives.
// The stream is pipelined: one word per cycle enters the route once every
// link along it is free, and words follow head latency StaticLatency.
func (m *Mesh) SendStatic(from, to, words int, start uint64) uint64 {
	if words <= 0 {
		return start
	}
	links := m.route(from, to)
	// The stream can begin once every link on the route is free
	// (a switch-processor route is configured end-to-end).
	begin := start
	for _, l := range links {
		if f := m.linkFree[l]; f > begin {
			m.counters.StaticLinkStalls += f - begin
			begin = f
		}
	}
	// Each link is then occupied for the duration of the stream.
	for _, l := range links {
		m.linkFree[l] = begin + uint64(words)
	}
	m.counters.StaticWords += uint64(words)
	return begin + m.StaticLatency(from, to) + uint64(words-1)
}

// PacketCycles returns the size in flits (words on the wire) of a
// dynamic-network message carrying payloadWords.
func (m *Mesh) PacketCycles(payloadWords int) int {
	w := payloadWords + m.cfg.HeaderWords
	if w < m.cfg.MinPacketWords {
		w = m.cfg.MinPacketWords
	}
	return w
}

// SendPacket sends one dynamic-network packet and returns the arrival
// cycle of its last flit. Dynamic routing is store-and-forward per hop,
// so it is slower than the static network for the same payload — the
// reason the paper's optimized kernels prefer the static network.
func (m *Mesh) SendPacket(from, to, payloadWords int, start uint64) uint64 {
	links := m.route(from, to)
	flits := uint64(m.PacketCycles(payloadWords))
	t := start
	for _, l := range links {
		if f := m.linkFree[l]; f > t {
			m.counters.DynamicLinkStalls += f - t
			t = f
		}
		m.linkFree[l] = t + flits
		t += flits // store-and-forward: the whole packet crosses the link
	}
	if len(links) == 0 {
		t += flits
	}
	m.counters.Packets++
	m.counters.DynamicWords += flits
	return t
}

// PortCount returns the number of peripheral memory ports (one per
// peripheral network connection; 16 on the 4x4 Raw chip, 4 per side).
func (m *Mesh) PortCount() int { return 2*m.cfg.Width + 2*m.cfg.Height }

// PortTile returns the boundary tile to which peripheral port p attaches.
// Ports are numbered clockwise: top row (left to right), right column
// (top to bottom), bottom row (right to left), left column (bottom to top).
func (m *Mesh) PortTile(p int) int {
	w, h := m.cfg.Width, m.cfg.Height
	if p < 0 || p >= m.PortCount() {
		panic(fmt.Sprintf("noc: port %d outside 0..%d", p, m.PortCount()-1))
	}
	switch {
	case p < w: // top
		return m.TileAt(p, 0)
	case p < w+h: // right
		return m.TileAt(w-1, p-w)
	case p < 2*w+h: // bottom
		return m.TileAt(w-1-(p-w-h), h-1)
	default: // left
		return m.TileAt(0, h-1-(p-2*w-h))
	}
}
