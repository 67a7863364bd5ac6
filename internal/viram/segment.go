package viram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"sigkern/internal/cache"
	"sigkern/internal/dram"
)

// A segment is a stretch of a program that a kernel emits again and
// again: RunCSLC's sub-band extract, each stage of a strip's FFT and
// each weight pass reuse one set of plane buffers for every channel and
// strip, and many specs share a strip length, a plane layout and a
// config. Each segment starts and ends with the butterfly pipeline
// empty, so what it does to the machine depends only on what it emits
// (its segID, the config and the heap) and on the machine state it
// starts from. The segment memo keeps, per process, what each segment
// did from each canonical entry state; a later run that enters the same
// segment in the same canonical state takes it from the memo instead of
// issuing its instructions.
//
// The canonical state takes every kept cycle relative to F, the
// earliest cycle the next instruction can dispatch (dispatch + 1, or 0
// before the first issue), as max(v, F) − F: the units' free cycles,
// the registers' chain-ready cycles, the issue queue's start ring read
// from its oldest slot, the DRAM clock and each bank's busy-until
// cycle. That is exact, because a later instruction compares each of
// them only with a cycle at or after F (its dispatch, its start, the
// DRAM issue cycle), so every value at or below F acts alike. The one
// direct comparison of two kept cycles, which integer ALU frees first,
// is kept as a bit, and the two ALUs' free cycles floor one cycle lower,
// at the dispatch itself: an integer op of VL 0 can free its ALU at F
// exactly, and the next one must still tell that from an earlier cycle.
// The open rows and the TLB's recency list are kept as they are.

// segKind names what a segment emits.
type segKind uint8

const (
	segExtract segKind = iota
	segWeight
	segDeinterleave
	segRadix4
	segCombine
	segCopyOut
	segScale
)

// segID names one segment: its kind and every value its emission reads
// besides the config and the heap, which the key adds.
type segID struct {
	kind segKind
	args [8]int
}

// segRun is what one segment did from one canonical entry state:
// the canonical state it left (as appendState wrote it at the exit's
// F), its last dispatch and its latest completion relative to the
// entry's F, and the events it counted.
type segRun struct {
	exit          []byte // read-only once stored
	advance, done uint64
	counts        eventCounts
	mem           dram.Counters
}

// segBudget bounds the bytes the segment memo retains.
const segBudget = 256 << 10

// segRunBytes is what one memoized run is charged beside its key and
// exit state: the 200-byte value and its share of the table.
const segRunBytes = 256

// segments memoizes segment runs by segment key.
var segments = cache.NewSizedMemo("viram_segment", segBudget, func(r segRun) int { return segRunBytes + len(r.exit) })

// configKey is the SHA-256 of cfg's JSON.
func configKey(cfg Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// A config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("viram: config key: %v", err))
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// segment issues what emit emits, or takes it from the segment memo.
// emit must start and end with the butterfly pipeline empty, and read
// nothing but id, the config and the heap. With a tracer attached every
// instruction issues, so a trace sees each one.
func (m *Machine) segment(id segID, emit func()) {
	if m.tracer != nil {
		emit()
		return
	}
	if len(m.pipe.pending.insts) != 0 {
		panic("viram: segment entered with butterflies in flight")
	}
	if m.cfgKey == "" {
		m.cfgKey = configKey(m.cfg)
	}
	s := &m.sb
	f := s.floor()
	b := append(m.key[:0], m.cfgKey...)
	b = append(b, byte(id.kind))
	for _, a := range id.args {
		b = binary.AppendVarint(b, int64(a))
	}
	b = binary.AppendVarint(b, int64(m.heap))
	m.key = m.appendState(b, f)
	key := string(m.key)
	if r, ok := segments.Get(key); ok {
		s.dispatch = f + r.advance
		s.end = max(s.end, f+r.done)
		s.eventCounts.add(r.counts)
		m.mem.AddCounters(r.mem)
		m.restoreState(r.exit, s.floor())
		return
	}
	before, mem, end := s.eventCounts, m.mem.Counters(), s.end
	s.end = 0
	emit()
	if s.issued == before.issued {
		s.end = end
		return // nothing issued, so nothing to replay
	}
	r := segRun{
		advance: s.dispatch - f,
		done:    s.end - f,
		counts:  s.eventCounts.sub(before),
		mem:     m.mem.Counters().Sub(mem),
	}
	s.end = max(s.end, end)
	r.exit = m.appendState(nil, s.floor())
	segments.Put(key, r)
}

// floor returns F, the earliest cycle the next instruction can
// dispatch.
func (s *scoreboard) floor() uint64 {
	if s.issued == 0 {
		return 0
	}
	return s.dispatch + 1
}

// appendState appends the machine's canonical state at floor f to b.
func (m *Machine) appendState(b []byte, f uint64) []byte {
	s := &m.sb
	alu := f
	if f > 0 {
		alu = f - 1
	}
	if s.unitFree[unitALU1] < s.unitFree[unitALU0] {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for u, free := range s.unitFree {
		if u == unitALU0 || u == unitALU1 {
			b = binary.AppendUvarint(b, above(free, alu))
		} else {
			b = binary.AppendUvarint(b, above(free, f))
		}
	}
	for _, r := range s.chainReady {
		b = binary.AppendUvarint(b, above(r, f))
	}
	for i := range s.starts {
		b = binary.AppendUvarint(b, above(s.starts[(s.slot+i)%len(s.starts)], f))
	}
	b = m.mem.AppendState(b, f)
	t := m.tlb
	b = binary.AppendUvarint(b, uint64(t.used))
	for sl := t.head; sl >= 0; sl = t.slots[sl].next {
		b = binary.AppendVarint(b, int64(t.slots[sl].page))
	}
	return b
}

// restoreState sets the canonical state appendState wrote, at floor f.
func (m *Machine) restoreState(b []byte, f uint64) {
	s := &m.sb
	alu := f - 1 // f > 0: a restored state has issued
	lower := b[0] == 1
	b = b[1:]
	for u := range s.unitFree {
		var v uint64
		v, b = uvarint(b)
		if u == unitALU0 || u == unitALU1 {
			s.unitFree[u] = alu + v
		} else {
			s.unitFree[u] = f + v
		}
	}
	if lower && s.unitFree[unitALU1] >= s.unitFree[unitALU0] {
		// Both were free by the dispatch; ALU1 was free first.
		s.unitFree[unitALU1] = s.unitFree[unitALU0] - 1
	}
	for r := range s.chainReady {
		s.chainReady[r], b = uvarint(b)
		s.chainReady[r] += f
	}
	for i := range s.starts {
		s.starts[i], b = uvarint(b)
		s.starts[i] += f
	}
	s.slot = 0
	b = m.mem.RestoreState(b, f)
	t := m.tlb
	t.reset()
	var used uint64
	used, b = uvarint(b)
	for range used {
		var page int64
		page, b = varint(b)
		t.pushBack(int(page))
	}
}

// above returns max(v, floor) − floor.
func above(v, floor uint64) uint64 {
	if v <= floor {
		return 0
	}
	return v - floor
}

// uvarint and varint decode one value appendState wrote and return the
// rest of b.
func uvarint(b []byte) (uint64, []byte) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		panic("viram: truncated segment state")
	}
	return v, b[n:]
}

func varint(b []byte) (int64, []byte) {
	v, n := binary.Varint(b)
	if n <= 0 {
		panic("viram: truncated segment state")
	}
	return v, b[n:]
}
