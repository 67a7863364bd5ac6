package dram

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := VIRAMDRAM()
	if err := good.Validate(); err != nil {
		t.Fatalf("VIRAMDRAM invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowWords = 0 },
		func(c *Config) { c.SeqWordsPerCycle = 0 },
		func(c *Config) { c.AddrGens = 0 },
		func(c *Config) { c.TRP = -1 },
		func(c *Config) { c.InterleaveWords = -8 },
		func(c *Config) { c.Banks = 1 << 30 },
		func(c *Config) { c.Banks = maxBanks + 1 },
		func(c *Config) { c.RowWords = 1 << 30 },
		func(c *Config) { c.InterleaveWords = 1 << 30 },
		func(c *Config) { c.TRP = maxTiming + 1 },
		func(c *Config) { c.TRCD = maxTiming + 1 },
		func(c *Config) { c.CAS = maxTiming + 1 },
		func(c *Config) { c.SeqWordsPerCycle = maxWordsPerCycle + 1 },
		func(c *Config) { c.AddrGens = maxWordsPerCycle + 1 },
	}
	for i, mutate := range cases {
		c := VIRAMDRAM()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
	limit := Config{Name: "limit", Banks: maxBanks, RowWords: maxRowWords, TRP: maxTiming, TRCD: maxTiming,
		CAS: maxTiming, SeqWordsPerCycle: maxWordsPerCycle, AddrGens: maxWordsPerCycle, InterleaveWords: maxRowWords}
	if err := limit.Validate(); err != nil {
		t.Errorf("config at every bound rejected: %v", err)
	}
}

func TestNewControllerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController with invalid config did not panic")
		}
	}()
	NewController(Config{})
}

func TestSequentialStreamNearPeak(t *testing.T) {
	c := NewController(VIRAMDRAM())
	const n = 1 << 16 // 64K words
	res := c.Stream(Request{Base: 0, Stride: 1, Count: n})
	peak := c.PeakSeqBandwidth(n)
	if res.Cycles < peak {
		t.Fatalf("sequential stream beat peak bandwidth: %d < %d", res.Cycles, peak)
	}
	// Row activates on a long unit-stride stream must be almost entirely
	// hidden: within 5% of peak.
	if float64(res.Cycles) > 1.05*float64(peak) {
		t.Fatalf("sequential stream too slow: %d cycles vs peak %d", res.Cycles, peak)
	}
}

func TestStridedStreamLimitedByAddressGenerators(t *testing.T) {
	c := NewController(VIRAMDRAM())
	const n = 1 << 14
	// Large stride: every access a new row, as in a column walk.
	res := c.Stream(Request{Base: 0, Stride: 1025, Count: n})
	seqPeak := c.PeakSeqBandwidth(n)         // 8 words/cycle
	stridedPeak := c.PeakStridedBandwidth(n) // 4 words/cycle
	if res.Cycles < stridedPeak {
		t.Fatalf("strided stream beat address-generator limit: %d < %d", res.Cycles, stridedPeak)
	}
	if res.Cycles <= seqPeak {
		t.Fatalf("strided stream as fast as sequential: %d <= %d", res.Cycles, seqPeak)
	}
}

func TestStridedSlowerThanSequentialSameWords(t *testing.T) {
	cSeq := NewController(VIRAMDRAM())
	cStr := NewController(VIRAMDRAM())
	const n = 8192
	seq := cSeq.Stream(Request{Stride: 1, Count: n})
	str := cStr.Stream(Request{Stride: 513, Count: n})
	if str.Cycles <= seq.Cycles {
		t.Fatalf("strided (%d) not slower than sequential (%d)", str.Cycles, seq.Cycles)
	}
}

func TestRowMissesCounted(t *testing.T) {
	c := NewController(VIRAMDRAM())
	cfg := c.Config()
	// Walk one word per row within a single bank: stride = RowWords*Banks.
	res := c.Stream(Request{Stride: cfg.RowWords * cfg.Banks, Count: 64})
	if res.RowMisses != 64 {
		t.Fatalf("RowMisses = %d, want 64 (every access a new row in the same bank)", res.RowMisses)
	}
	if res.ConflictStalls == 0 {
		t.Fatal("expected conflict stalls when hammering a single bank")
	}
}

func TestReorderControllerHidesStridedPenalty(t *testing.T) {
	plain := ImagineChannel(0)
	plain.Reorder = false
	cr := NewController(ImagineChannel(0))
	cp := NewController(plain)
	const n = 8192
	rr := cr.Stream(Request{Stride: 1025, Count: n})
	rp := cp.Stream(Request{Stride: 1025, Count: n})
	if rr.Cycles > rp.Cycles {
		t.Fatalf("reordering controller slower than plain: %d > %d", rr.Cycles, rp.Cycles)
	}
	peak := cr.PeakSeqBandwidth(n)
	if float64(rr.Cycles) > 1.05*float64(peak) {
		t.Fatalf("reordering controller did not reach streaming bandwidth: %d vs peak %d", rr.Cycles, peak)
	}
}

func TestIndexedGather(t *testing.T) {
	c := NewController(VIRAMDRAM())
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = (i * 7919) % (1 << 20)
	}
	res := c.Stream(Request{Indices: idx})
	if res.Words != 1024 {
		t.Fatalf("Words = %d, want 1024", res.Words)
	}
	if res.Cycles < c.PeakStridedBandwidth(1024) {
		t.Fatal("gather beat the address-generator limit")
	}
}

func TestEmptyStream(t *testing.T) {
	c := NewController(VIRAMDRAM())
	res := c.Stream(Request{Stride: 1, Count: 0})
	if res.Cycles != 0 || res.Words != 0 {
		t.Fatalf("empty stream: %+v", res)
	}
}

func TestZeroStrideWithoutIndicesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero stride did not panic")
		}
	}()
	NewController(VIRAMDRAM()).Stream(Request{Stride: 0, Count: 4})
}

func TestClockAdvancesAcrossStreams(t *testing.T) {
	c := NewController(VIRAMDRAM())
	r1 := c.Stream(Request{Stride: 1, Count: 1024})
	t1 := c.Now()
	if t1 != r1.Cycles {
		t.Fatalf("clock %d != first stream cycles %d", t1, r1.Cycles)
	}
	r2 := c.Stream(Request{Stride: 1, Count: 1024})
	if c.Now() != t1+r2.Cycles {
		t.Fatalf("clock %d != %d + %d", c.Now(), t1, r2.Cycles)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	c := NewController(VIRAMDRAM())
	r := c.Stream(Request{Stride: 513, Count: 4096})
	want := Counters{RowMisses: r.RowMisses, WordsRead: 4096, StreamRequests: 1, BusyCycles: r.Cycles}
	if got := c.Counters(); got != want {
		t.Fatalf("counters after one stream = %+v, want %+v", got, want)
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("clock after reset = %d", c.Now())
	}
	if got := c.Counters(); got != (Counters{}) {
		t.Fatalf("counters after reset = %+v", got)
	}
}

func TestLineFetchLatency(t *testing.T) {
	c := NewController(PPCDRAM())
	cfg := c.Config()
	lat1 := c.LineFetch(0, 8)
	// First access: closed row -> precharge+activate+CAS+burst.
	want := uint64(cfg.TRP + cfg.TRCD + cfg.CAS + 8/cfg.SeqWordsPerCycle)
	if lat1 != want {
		t.Fatalf("cold LineFetch = %d, want %d", lat1, want)
	}
	// Second access to the same row: open-row hit, no activate.
	lat2 := c.LineFetch(8, 8)
	if lat2 >= lat1 {
		t.Fatalf("open-row LineFetch %d not faster than cold %d", lat2, lat1)
	}
}

func TestPeakBandwidthHelpers(t *testing.T) {
	c := NewController(VIRAMDRAM())
	if got := c.PeakSeqBandwidth(1 << 20); got != 1<<20/8 {
		t.Fatalf("PeakSeqBandwidth = %d", got)
	}
	if got := c.PeakStridedBandwidth(1 << 20); got != 1<<20/4 {
		t.Fatalf("PeakStridedBandwidth = %d", got)
	}
}

// Property: for any positive count and stride, cycles are at least the
// issue-width bound and words always equal the request count.
func TestStreamLowerBoundProperty(t *testing.T) {
	c := NewController(VIRAMDRAM())
	f := func(count uint16, stride uint16) bool {
		n := int(count)%4096 + 1
		s := int(stride)%2048 + 1
		c.Reset()
		res := c.Stream(Request{Stride: s, Count: n})
		if res.Words != uint64(n) {
			return false
		}
		var lower uint64
		if s == 1 {
			lower = c.PeakSeqBandwidth(uint64(n))
		} else {
			lower = c.PeakStridedBandwidth(uint64(n))
		}
		return res.Cycles >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling the word count never reduces total cycles.
func TestStreamMonotoneInCount(t *testing.T) {
	f := func(count uint16, stride uint8) bool {
		n := int(count)%2048 + 1
		s := int(stride)%512 + 1
		c1 := NewController(VIRAMDRAM())
		c2 := NewController(VIRAMDRAM())
		r1 := c1.Stream(Request{Stride: s, Count: n})
		r2 := c2.Stream(Request{Stride: s, Count: 2 * n})
		return r2.Cycles >= r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequentialStream1M(b *testing.B) {
	c := NewController(VIRAMDRAM())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Stream(Request{Stride: 1, Count: 1 << 20})
	}
}

func BenchmarkStridedStream1M(b *testing.B) {
	c := NewController(VIRAMDRAM())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Stream(Request{Stride: 1025, Count: 1 << 20})
	}
}

// BenchmarkReorderStream times one Imagine corner-turn strip (8,192
// words from base 0) on each reordering controller: read at unit stride,
// as Imagine loads a strip and Raw streams a block, and written at the
// paper matrix's 1,024-word row stride, as Imagine stores a strip.
func BenchmarkReorderStream(b *testing.B) {
	const stripWords = 8192
	for _, cfg := range []Config{ImagineChannel(0), RawPort(0)} {
		for _, stride := range []int{1, 1024} {
			b.Run(cfg.Name+"/stride"+strconv.Itoa(stride), func(b *testing.B) {
				c := NewController(cfg)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.Reset()
					c.Stream(Request{Stride: stride, Count: stripWords})
				}
			})
		}
	}
}
