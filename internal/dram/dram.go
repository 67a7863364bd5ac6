// Package dram implements a banked DRAM timing model with open-row
// tracking, precharge/activate penalties, and address-generator-limited
// strided access, as needed to reproduce the memory behaviour described
// in the paper:
//
//   - VIRAM's on-chip DRAM: two wings of four banks, a 256-bit datapath
//     (8 sequential 32-bit words per cycle) but only four address
//     generators (4 strided/indexed words per cycle), with visible
//     precharge overhead on strided streams.
//   - Imagine's and Raw's off-chip memory: one word per cycle per
//     memory controller/port, with streaming controllers that reorder
//     accesses to avoid bank conflicts.
//
// The model is cycle-driven at word granularity: every word of a stream
// request is assigned a serve cycle subject to (a) the per-cycle issue
// width, and (b) per-bank availability (a bank that must precharge and
// activate a new row is busy for TRP+TRCD cycles).
package dram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"sigkern/internal/sim"
)

// Config describes one DRAM array and its controller.
type Config struct {
	// Name labels the array in stats ("viram-dram", "raw-port3", ...).
	Name string
	// Banks is the total number of independent banks (wings x banks/wing).
	Banks int
	// RowWords is the number of 32-bit words in one row of one bank.
	RowWords int
	// TRP is the precharge time in processor cycles.
	TRP int
	// TRCD is the row activate (RAS-to-CAS) time in processor cycles.
	TRCD int
	// CAS is the column access latency in processor cycles; it determines
	// the unhidden latency of the first word of a stream.
	CAS int
	// SeqWordsPerCycle is the peak sequential (unit-stride) words
	// transferred per cycle.
	SeqWordsPerCycle int
	// AddrGens is the number of address generators: the maximum strided
	// or indexed words issued per cycle.
	AddrGens int
	// InterleaveWords is the bank-interleave granularity in words; 0
	// means row-granular interleaving (banks switch every RowWords).
	// VIRAM interleaves at the 256-bit access granularity (8 words) so
	// strided streams rotate across all banks.
	InterleaveWords int
	// Reorder models a streaming memory controller (Imagine) that
	// reorders pending accesses to avoid bank conflicts: when set,
	// strided streams behave like sequential ones at SeqWordsPerCycle
	// words per cycle and row activates overlap.
	Reorder bool
}

// Absolute upper bounds on a DRAM configuration, far above any real or
// swept array. They bound the per-bank state one configuration pins and
// keep every address and cycle computation far from overflow.
const (
	maxBanks         = 1024
	maxRowWords      = 1 << 20
	maxTiming        = 10_000
	maxWordsPerCycle = 1024
)

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return errors.New("dram: Banks must be positive")
	case c.Banks > maxBanks:
		return fmt.Errorf("dram: Banks %d above the %d limit", c.Banks, maxBanks)
	case c.RowWords <= 0:
		return errors.New("dram: RowWords must be positive")
	case c.RowWords > maxRowWords:
		return fmt.Errorf("dram: RowWords %d above the %d limit", c.RowWords, maxRowWords)
	case c.SeqWordsPerCycle <= 0:
		return errors.New("dram: SeqWordsPerCycle must be positive")
	case c.SeqWordsPerCycle > maxWordsPerCycle:
		return fmt.Errorf("dram: SeqWordsPerCycle %d above the %d limit", c.SeqWordsPerCycle, maxWordsPerCycle)
	case c.AddrGens <= 0:
		return errors.New("dram: AddrGens must be positive")
	case c.AddrGens > maxWordsPerCycle:
		return fmt.Errorf("dram: AddrGens %d above the %d limit", c.AddrGens, maxWordsPerCycle)
	case c.TRP < 0 || c.TRCD < 0 || c.CAS < 0:
		return errors.New("dram: negative timing parameter")
	case c.TRP > maxTiming:
		return fmt.Errorf("dram: TRP %d above the %d limit", c.TRP, maxTiming)
	case c.TRCD > maxTiming:
		return fmt.Errorf("dram: TRCD %d above the %d limit", c.TRCD, maxTiming)
	case c.CAS > maxTiming:
		return fmt.Errorf("dram: CAS %d above the %d limit", c.CAS, maxTiming)
	case c.InterleaveWords < 0:
		return fmt.Errorf("dram: InterleaveWords %d must not be negative", c.InterleaveWords)
	case c.InterleaveWords > maxRowWords:
		return fmt.Errorf("dram: InterleaveWords %d above the %d limit", c.InterleaveWords, maxRowWords)
	}
	return nil
}

// VIRAMDRAM returns the on-chip DRAM of the VIRAM chip: 2 wings x 4
// banks, 256-bit datapath (8 words/cycle sequential), 4 address
// generators. On-chip timing is short in 200 MHz processor cycles.
func VIRAMDRAM() Config {
	return Config{
		Name:             "viram-dram",
		Banks:            8,
		RowWords:         512, // 2 KB rows
		TRP:              1,
		TRCD:             1,
		CAS:              4,
		SeqWordsPerCycle: 8,
		AddrGens:         4,
		InterleaveWords:  8,
	}
}

// ImagineChannel returns one of Imagine's two off-chip memory channels:
// one word per cycle, with a reordering stream controller.
func ImagineChannel(i int) Config {
	return Config{
		Name:             fmt.Sprintf("imagine-mc%d", i),
		Banks:            4,
		RowWords:         512,
		TRP:              6,
		TRCD:             6,
		CAS:              12,
		SeqWordsPerCycle: 1,
		AddrGens:         1,
		Reorder:          true,
	}
}

// RawPort returns one of Raw's peripheral DRAM ports: one word per cycle
// streaming.
func RawPort(i int) Config {
	return Config{
		Name:             fmt.Sprintf("raw-port%d", i),
		Banks:            4,
		RowWords:         512,
		TRP:              6,
		TRCD:             6,
		CAS:              12,
		SeqWordsPerCycle: 1,
		AddrGens:         1,
		Reorder:          true,
	}
}

// PPCDRAM returns the main-memory array behind the PowerPC G4's caches.
// Timing is in 1 GHz processor cycles, so latencies are long.
func PPCDRAM() Config {
	return Config{
		Name:             "ppc-dram",
		Banks:            4,
		RowWords:         512,
		TRP:              30,
		TRCD:             30,
		CAS:              80,
		SeqWordsPerCycle: 1,
		AddrGens:         1,
	}
}

// Request describes one stream access: Count words starting at word
// address Base with the given word stride. If Indices is non-nil the
// request is an indexed (gather/scatter) access and Base/Stride are
// ignored.
type Request struct {
	Base    int
	Stride  int
	Count   int
	Write   bool
	Indices []int
}

// StreamResult reports the timing of one stream request.
type StreamResult struct {
	// Cycles is the number of cycles from first issue to last word served.
	Cycles uint64
	// StartLatency is the unhidden latency before the first word arrives
	// (CAS + activate); callers decide whether their machine hides it.
	StartLatency uint64
	// RowMisses counts accesses that required precharge + activate.
	RowMisses uint64
	// ConflictStalls counts cycles lost waiting for busy banks beyond the
	// issue-width limit.
	ConflictStalls uint64
	// Words is the number of words transferred.
	Words uint64
}

// Counters are a controller's event counts since the last Reset.
type Counters struct {
	RowMisses, WordsRead, WordsWritten uint64
	StreamRequests, BusyCycles         uint64
	LineFetches                        uint64
}

// Controller simulates one DRAM array. It is not safe for concurrent use.
type Controller struct {
	cfg      Config
	openRow  []int    // open row per bank, -1 = closed
	bankFree []uint64 // cycle at which each bank can accept a new activate
	clock    sim.Clock
	counters Counters

	// The address mapping, derived once from cfg: banks switch every il
	// words, and a row stripe spans stripe words. When both and the bank
	// count are powers of two, decoding is by shift and mask. A run (a
	// stretch of words in one bank and one row) never crosses a multiple
	// of il or of stripe; span is the smaller of the two.
	il, stripe, span  int
	pow2              bool
	ilShift, rowShift uint
	bankMask          int
}

// NewController returns a controller for cfg. It panics if cfg is invalid,
// since configurations are compile-time constants in this repository.
func NewController(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:      cfg,
		openRow:  make([]int, cfg.Banks),
		bankFree: make([]uint64, cfg.Banks),
		il:       cfg.InterleaveWords,
		stripe:   cfg.RowWords * cfg.Banks,
		bankMask: cfg.Banks - 1,
	}
	if c.il == 0 {
		c.il = cfg.RowWords
	}
	c.span = min(c.il, c.stripe)
	if isPow2(c.il) && isPow2(cfg.Banks) && isPow2(c.stripe) {
		c.pow2 = true
		c.ilShift = uint(bits.TrailingZeros(uint(c.il)))
		c.rowShift = uint(bits.TrailingZeros(uint(c.stripe)))
	}
	c.Reset()
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reset closes all rows and rewinds the clock, reusing the per-bank
// state.
func (c *Controller) Reset() {
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	clear(c.bankFree)
	c.clock.Reset()
	c.counters = Counters{}
}

// Counters returns the event counts accumulated since the last Reset.
func (c *Controller) Counters() Counters { return c.counters }

// Sub returns the counts c holds beyond earlier, field by field.
func (c Counters) Sub(earlier Counters) Counters {
	return Counters{
		RowMisses:      c.RowMisses - earlier.RowMisses,
		WordsRead:      c.WordsRead - earlier.WordsRead,
		WordsWritten:   c.WordsWritten - earlier.WordsWritten,
		StreamRequests: c.StreamRequests - earlier.StreamRequests,
		BusyCycles:     c.BusyCycles - earlier.BusyCycles,
		LineFetches:    c.LineFetches - earlier.LineFetches,
	}
}

// AddCounters adds d to the controller's counts, as if the requests
// that counted d had run on it.
func (c *Controller) AddCounters(d Counters) {
	c.counters.RowMisses += d.RowMisses
	c.counters.WordsRead += d.WordsRead
	c.counters.WordsWritten += d.WordsWritten
	c.counters.StreamRequests += d.StreamRequests
	c.counters.BusyCycles += d.BusyCycles
	c.counters.LineFetches += d.LineFetches
}

// AppendState appends what later requests read of the controller to b:
// the clock and each bank's busy-until cycle, as max(v, floor) − floor,
// and each bank's open row, all as varints. A caller that syncs the
// clock to a cycle at or after floor before each later request (as
// VIRAM's scoreboard does) compares these cycles only with cycles at or
// after floor, so two states that append the same bytes at their own
// floors time every later request alike, relative to those floors.
func (c *Controller) AppendState(b []byte, floor uint64) []byte {
	b = binary.AppendUvarint(b, above(c.clock.Now(), floor))
	for bank, row := range c.openRow {
		b = binary.AppendVarint(b, int64(row))
		b = binary.AppendUvarint(b, above(c.bankFree[bank], floor))
	}
	return b
}

// RestoreState sets the state AppendState wrote, with its cycles taken
// relative to floor, and returns the rest of b.
func (c *Controller) RestoreState(b []byte, floor uint64) []byte {
	var now uint64
	now, b = uvarint(b)
	c.clock.Reset()
	c.clock.AdvanceTo(floor + now)
	for bank := range c.openRow {
		var row int64
		row, b = varint(b)
		c.openRow[bank] = int(row)
		c.bankFree[bank], b = uvarint(b)
		c.bankFree[bank] += floor
	}
	return b
}

// above returns max(v, floor) − floor.
func above(v, floor uint64) uint64 {
	if v <= floor {
		return 0
	}
	return v - floor
}

// uvarint and varint decode one value AppendState wrote and return the
// rest of b; b is always state this package encoded.
func uvarint(b []byte) (uint64, []byte) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		panic("dram: truncated state")
	}
	return v, b[n:]
}

func varint(b []byte) (int64, []byte) {
	v, n := binary.Varint(b)
	if n <= 0 {
		panic("dram: truncated state")
	}
	return v, b[n:]
}

// Now returns the controller's current cycle.
func (c *Controller) Now() uint64 { return c.clock.Now() }

// SyncTo advances the controller clock to machine time t (never
// backward). Machine models call it before issuing a stream whose start
// is determined by the pipeline rather than by the previous DRAM access.
func (c *Controller) SyncTo(t uint64) { c.clock.AdvanceTo(t) }

// bankAndRow decodes a word address into (bank, row). Banks are
// interleaved every InterleaveWords words (RowWords when unset); a "row"
// is the stripe of RowWords*Banks contiguous words whose per-bank slices
// occupy one DRAM row each.
func (c *Controller) bankAndRow(addr int) (bank, row int) {
	if addr < 0 {
		addr = -addr
	}
	if c.pow2 {
		// The shift counts are below 64; masking them says so to the
		// compiler, which then emits a bare shift.
		return (addr >> (c.ilShift & 63)) & c.bankMask, addr >> (c.rowShift & 63)
	}
	return (addr / c.il) % c.cfg.Banks, addr / c.stripe
}

// issueWidth returns how many words of this request may issue per cycle.
func (c *Controller) issueWidth(strided bool) int {
	if strided && !c.cfg.Reorder {
		if c.cfg.AddrGens < c.cfg.SeqWordsPerCycle {
			return c.cfg.AddrGens
		}
	}
	return c.cfg.SeqWordsPerCycle
}

// rowCycle is the bank occupancy of one precharge + activate sequence.
func (c *Controller) rowCycle() uint64 {
	return uint64(c.cfg.TRP + c.cfg.TRCD)
}

// queueDepth is the number of outstanding word accesses the controller
// tracks; when completions fall this far behind, issue stalls
// (backpressure). Sixteen matches a modest access queue.
const queueDepth = 16

// Stream executes one stream request and advances the controller clock to
// the completion cycle. The returned result covers only this request.
//
// The model separates issue throughput from completion latency: addresses
// issue at the width permitted by the address generators (or the full
// datapath for unit strides); a word that opens a new DRAM row completes
// TRP+TRCD later and occupies its bank for that long, so accesses that
// revisit a busy bank are pushed out and, through the bounded request
// queue, eventually stall issue. A reordering stream controller (Imagine,
// Raw ports) hides activate latency entirely by scheduling around it.
//
// The request is walked run by run. A run is a stretch of consecutive
// words in one interleave chunk and one row stripe, so in one bank and
// one row: only its first word can open a row, and each run decodes its
// address and tests its bank's open row once. The rest of its words
// only take a queue entry and an issue slot, and not even that while no
// queued word is served after the current issue cycle. A reordering
// controller serves every word at its issue cycle (it never stalls, so
// word i issues at start + i/width), which leaves nothing to do per
// word: a row miss marks its bank busy from that word's issue cycle,
// and the stream takes ⌈n/width⌉ cycles. The per-word walk this
// replaced is the oracle in oracle_test.go.
func (c *Controller) Stream(req Request) StreamResult {
	n := req.Count
	if req.Indices != nil {
		n = len(req.Indices)
	}
	if n == 0 {
		return StreamResult{}
	}
	if req.Indices == nil && req.Stride == 0 {
		panic("dram: zero stride with no indices")
	}

	strided := req.Indices != nil || req.Stride != 1
	width := c.issueWidth(strided)
	start := c.clock.Now()
	res := StreamResult{Words: uint64(n), StartLatency: uint64(c.cfg.CAS + c.cfg.TRCD)}
	// Runs are longer than one word only for ascending strides shorter
	// than a chunk and a stripe, from a non-negative base. Indexed,
	// descending, negative-base and chunk-wide requests take one word per
	// run, with no division beyond the decode.
	runs := req.Indices == nil && req.Base >= 0 && req.Stride > 0 && req.Stride < c.span

	var finish uint64
	if c.cfg.Reorder {
		res.RowMisses = c.reordered(req, n, width, start, runs)
		finish = start + uint64((n-1)/width)
	} else {
		finish, res.RowMisses, res.ConflictStalls = c.queued(req, n, width, start, runs)
	}
	end := finish + 1
	res.Cycles = end - start
	c.clock.AdvanceTo(end)
	c.counters.RowMisses += res.RowMisses
	if req.Write {
		c.counters.WordsWritten += res.Words
	} else {
		c.counters.WordsRead += res.Words
	}
	c.counters.StreamRequests++
	c.counters.BusyCycles += res.Cycles
	return res
}

// reordered walks a request on a reordering controller, which serves
// word i at its issue cycle, start + i/width. It opens each run's row and
// returns the row misses.
func (c *Controller) reordered(req Request, n, width int, start uint64, runs bool) (misses uint64) {
	issue, slot := start, 0 // the run's first issue cycle and its slot in it
	for i := 0; i < n; {
		addr := req.Base + i*req.Stride
		if req.Indices != nil {
			addr = req.Indices[i]
		}
		bank, row := c.bankAndRow(addr)
		run := 1
		if runs {
			run = min(c.runWords(addr, req.Stride), n-i)
		}
		if c.openRow[bank] != row {
			// The streaming controller schedules around activates; the
			// bank is refreshed in the background.
			misses++
			c.bankFree[bank] = issue + c.rowCycle()
			c.openRow[bank] = row
		}
		issue, slot = advance(issue, slot, run, width)
		i += run
	}
	return misses
}

// queued walks a request through the controller's bounded queue and
// returns the last serve cycle, the row misses and the stall cycles.
func (c *Controller) queued(req Request, n, width int, start uint64, runs bool) (finish, misses, stalls uint64) {
	var ring [queueDepth]uint64 // serve cycles of the last queueDepth words
	issue, slot := start, 0     // word i's issue cycle and its slot in it
	finish = start
	for i := 0; i < n; {
		addr := req.Base + i*req.Stride
		if req.Indices != nil {
			addr = req.Indices[i]
		}
		bank, row := c.bankAndRow(addr)

		// Backpressure: the queue holds at most queueDepth outstanding
		// accesses. Its entries start at 0, which no issue cycle
		// precedes.
		q := &ring[uint(i)%queueDepth]
		if *q > issue {
			stalls += *q - issue
			issue = *q
		}
		serve := issue
		if c.openRow[bank] != row {
			misses++
			if free := c.bankFree[bank]; free > serve {
				stalls += free - serve
				serve = free
			}
			serve += c.rowCycle()
			c.bankFree[bank] = serve
			c.openRow[bank] = row
		}
		*q = serve
		finish = max(finish, serve)
		issue, slot = advance(issue, slot, 1, width)
		i++
		if !runs {
			continue
		}

		// The rest of the run is served from its open row.
		end := min(i-1+c.runWords(addr, req.Stride), n)
		if m := end - i; m > 0 && finish <= issue {
			// No queued word is served after issue, so none of the m
			// stalls: each is served at its issue cycle. Their queue
			// entries are skipped, which no later word can tell: the
			// entries they would write and the ones left in place are
			// all at or before issue.
			finish = issue + uint64((slot+m-1)/width)
			issue, slot = advance(issue, slot, m, width)
			i = end
		}
		for ; i < end; i++ {
			q := &ring[uint(i)%queueDepth]
			if *q > issue {
				stalls += *q - issue
				issue = *q
			}
			*q = issue
			finish = max(finish, issue)
			issue, slot = advance(issue, slot, 1, width)
		}
	}
	return finish, misses, stalls
}

// runWords returns how many words of an ascending stream with stride s
// (0 < s < span) from word address addr >= 0 lie before the next multiple
// of the interleave or of the row stripe: the length of addr's run.
func (c *Controller) runWords(addr, s int) int {
	var left int
	if c.pow2 {
		left = min(c.il-addr&(c.il-1), c.stripe-addr&(c.stripe-1))
	} else {
		left = min(c.il-addr%c.il, c.stripe-addr%c.stripe)
	}
	if s == 1 {
		return left
	}
	return (left + s - 1) / s
}

// advance moves a stream's issue cycle and slot on by words words, at
// width words per cycle. One word costs no division.
func advance(issue uint64, slot, words, width int) (uint64, int) {
	slot += words
	switch {
	case slot < width:
		return issue, slot
	case words == 1:
		return issue + 1, 0
	}
	return issue + uint64(slot/width), slot % width
}

// LineFetch models a cache-line fill of lineWords words at word address
// addr: the full row activate + CAS latency plus the burst transfer. It
// returns the total latency in cycles. Used by the PPC and Raw cache
// models, where each miss is an isolated access rather than a stream.
func (c *Controller) LineFetch(addr, lineWords int) uint64 {
	bank, row := c.bankAndRow(addr)
	lat := uint64(c.cfg.CAS)
	if c.openRow[bank] != row {
		lat += uint64(c.cfg.TRP + c.cfg.TRCD)
		c.openRow[bank] = row
		c.counters.RowMisses++
	}
	lat += sim.CeilDiv(uint64(lineWords), uint64(c.cfg.SeqWordsPerCycle))
	c.counters.LineFetches++
	c.counters.WordsRead += uint64(lineWords)
	return lat
}

// PeakSeqBandwidth returns the theoretical minimum cycles to move n words
// at full sequential bandwidth — the Section 2.5 performance-model number.
func (c *Controller) PeakSeqBandwidth(n uint64) uint64 {
	return sim.CeilDiv(n, uint64(c.cfg.SeqWordsPerCycle))
}

// PeakStridedBandwidth returns the theoretical minimum cycles to move n
// strided words given the address-generator limit.
func (c *Controller) PeakStridedBandwidth(n uint64) uint64 {
	return sim.CeilDiv(n, uint64(c.issueWidth(true)))
}
