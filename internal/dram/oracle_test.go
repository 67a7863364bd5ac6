package dram

import (
	"math/rand"
	"testing"
)

// oracleBankAndRow is the per-word decode before the address mapping
// was derived once per controller: two divisions for every word.
func oracleBankAndRow(c *Controller, addr int) (bank, row int) {
	if addr < 0 {
		addr = -addr
	}
	il := c.cfg.InterleaveWords
	if il == 0 {
		il = c.cfg.RowWords
	}
	bank = (addr / il) % c.cfg.Banks
	row = addr / (c.cfg.RowWords * c.cfg.Banks)
	return bank, row
}

// oracleStream is Stream before the address mapping was derived once
// per controller: it decodes every word with oracleBankAndRow. It is the
// oracle Stream must match call for call.
func oracleStream(c *Controller, req Request) StreamResult {
	n := req.Count
	if req.Indices != nil {
		n = len(req.Indices)
	}
	if n == 0 {
		return StreamResult{}
	}
	strided := req.Indices != nil || req.Stride != 1
	width := c.issueWidth(strided)
	start := c.clock.Now()
	issue := start
	var res StreamResult
	res.Words = uint64(n)
	res.StartLatency = uint64(c.cfg.CAS + c.cfg.TRCD)

	var ring [queueDepth]uint64
	inSlot := 0
	finish := start
	for i := 0; i < n; i++ {
		addr := req.Base + i*req.Stride
		if req.Indices != nil {
			addr = req.Indices[i]
		}
		bank, row := oracleBankAndRow(c, addr)
		if i >= queueDepth && ring[i%queueDepth] > issue {
			res.ConflictStalls += ring[i%queueDepth] - issue
			issue = ring[i%queueDepth]
		}
		serve := issue
		if c.openRow[bank] != row {
			res.RowMisses++
			if c.cfg.Reorder {
				c.bankFree[bank] = serve + c.rowCycle()
			} else {
				rowStart := serve
				if c.bankFree[bank] > rowStart {
					res.ConflictStalls += c.bankFree[bank] - rowStart
					rowStart = c.bankFree[bank]
				}
				serve = rowStart + c.rowCycle()
				c.bankFree[bank] = serve
			}
			c.openRow[bank] = row
		}
		ring[i%queueDepth] = serve
		if serve > finish {
			finish = serve
		}
		inSlot++
		if inSlot == width {
			inSlot = 0
			issue++
		}
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

// oracleLineFetch is LineFetch over oracleBankAndRow.
func oracleLineFetch(c *Controller, addr, lineWords int) uint64 {
	bank, row := oracleBankAndRow(c, addr)
	lat := uint64(c.cfg.CAS)
	if c.openRow[bank] != row {
		lat += uint64(c.cfg.TRP + c.cfg.TRCD)
		c.openRow[bank] = row
		c.counters.RowMisses++
	}
	lat += (uint64(lineWords) + uint64(c.cfg.SeqWordsPerCycle) - 1) / uint64(c.cfg.SeqWordsPerCycle)
	c.counters.LineFetches++
	c.counters.WordsRead += uint64(lineWords)
	return lat
}

// oracleConfigs cover power-of-two and other bank counts, row-granular
// (InterleaveWords 0) and narrow interleaves, rows that are not a power
// of two, interleaves wider than a row stripe (so one chunk spans
// several stripes), and the reordering controller on and off, at one
// and at several words per cycle.
func oracleConfigs() map[string]Config {
	six := VIRAMDRAM()
	six.Banks = 6
	sixRow := PPCDRAM()
	sixRow.Banks = 6
	odd := VIRAMDRAM()
	odd.Banks, odd.RowWords, odd.InterleaveWords = 5, 384, 24
	sixReorder := ImagineChannel(0)
	sixReorder.Banks = 6
	sixReorderIL := sixReorder
	sixReorderIL.InterleaveWords = 8
	wide := VIRAMDRAM()
	wide.Banks, wide.RowWords, wide.InterleaveWords = 4, 64, 1024
	wideReorder := RawPort(0)
	wideReorder.InterleaveWords, wideReorder.SeqWordsPerCycle = 4096, 4
	return map[string]Config{
		"viram":                  VIRAMDRAM(),
		"ppc":                    PPCDRAM(),
		"imagine":                ImagineChannel(0),
		"raw":                    RawPort(0),
		"6-banks/il8":            six,
		"6-banks/il0":            sixRow,
		"5-banks/row384/il24":    odd,
		"6-banks/reorder/il0":    sixReorder,
		"6-banks/reorder/il8":    sixReorderIL,
		"4-banks/row64/il1024":   wide,
		"reorder/il4096/4-words": wideReorder,
	}
}

// oracleRequest draws one seeded request: unit, small, row-sized and
// huge strides, forward and backward, from bases of either sign,
// gathers, and the streams Imagine and Raw issue: base 0, unit or fixed
// stride, 512 to 8,192 words, whose runs cross chunks, stripes and the
// request queue.
func oracleRequest(rng *rand.Rand) Request {
	req := Request{Base: rng.Intn(1 << 22), Count: rng.Intn(300), Write: rng.Intn(3) == 0}
	switch rng.Intn(8) {
	case 0:
		req.Stride = 1
	case 1:
		req.Stride = 1 + rng.Intn(16)
	case 2:
		req.Stride = 1 + rng.Intn(8192)
	case 3:
		req.Stride = -(1 + rng.Intn(4096))
	case 4:
		req.Stride = 1 + rng.Intn(1<<20)
		if rng.Intn(2) == 0 {
			req.Base = -req.Base
		}
	case 6:
		req.Base, req.Stride, req.Count = 0, 1, 512+rng.Intn(8192-512+1)
	case 7:
		strides := []int{2, 3, 8, 24, 64, 511, 1024}
		req.Base, req.Stride, req.Count = 0, strides[rng.Intn(len(strides))], 512+rng.Intn(8192-512+1)
	default:
		req.Indices = make([]int, req.Count)
		for i := range req.Indices {
			req.Indices[i] = rng.Intn(1<<22) - 1<<20
		}
	}
	return req
}

// TestStreamMatchesOracle replays seeded request sequences, interleaved
// with line fills and clock syncs, on two controllers per config and
// requires identical results, counters, clocks and bank state after
// every call.
func TestStreamMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			got, want := NewController(cfg), NewController(cfg)
			rng := rand.New(rand.NewSource(seed))
			for call := 0; call < 300; call++ {
				switch rng.Intn(8) {
				case 0:
					addr, words := rng.Intn(1<<22), 8
					if g, w := got.LineFetch(addr, words), oracleLineFetch(want, addr, words); g != w {
						t.Fatalf("%s seed %d call %d: LineFetch(%d) = %d, oracle %d", name, seed, call, addr, g, w)
					}
				case 1:
					t0 := got.Now() + uint64(rng.Intn(100))
					got.SyncTo(t0)
					want.SyncTo(t0)
				case 2:
					if call%50 == 2 {
						got.Reset()
						want.Reset()
					}
				default:
					req := oracleRequest(rng)
					if req.Indices == nil && req.Count == 0 {
						continue
					}
					if g, w := got.Stream(req), oracleStream(want, req); g != w {
						t.Fatalf("%s seed %d call %d: Stream(base %d stride %d count %d indexed %v) = %+v, oracle %+v",
							name, seed, call, req.Base, req.Stride, req.Count, req.Indices != nil, g, w)
					}
				}
				if got.Counters() != want.Counters() || got.Now() != want.Now() {
					t.Fatalf("%s seed %d call %d: counters %+v at %d, oracle %+v at %d",
						name, seed, call, got.Counters(), got.Now(), want.Counters(), want.Now())
				}
				for b := range got.openRow {
					if got.openRow[b] != want.openRow[b] || got.bankFree[b] != want.bankFree[b] {
						t.Fatalf("%s seed %d call %d: bank %d open row %d free %d, oracle %d free %d",
							name, seed, call, b, got.openRow[b], got.bankFree[b], want.openRow[b], want.bankFree[b])
					}
				}
			}
		}
	}
}

// TestBankAndRowMatchesOracle checks the per-controller decode (shift
// and mask for power-of-two configs) against the division form.
func TestBankAndRowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, cfg := range oracleConfigs() {
		c := NewController(cfg)
		for i := 0; i < 20000; i++ {
			addr := rng.Intn(1<<30) - 1<<29
			gb, gr := c.bankAndRow(addr)
			wb, wr := oracleBankAndRow(c, addr)
			if gb != wb || gr != wr {
				t.Fatalf("%s: bankAndRow(%d) = (%d, %d), oracle (%d, %d)", name, addr, gb, gr, wb, wr)
			}
		}
	}
}
