// Package sim provides the primitives shared by every machine timing
// model in this repository: a cycle clock, stat counters, cycle-breakdown
// accounting, and a deterministic PRNG for workload generation.
//
// All machine models in internal/viram, internal/imagine, internal/rawsim
// and internal/ppc are "functional + timing" simulators: they perform the
// real data transformation while a cycle-driven engine accounts time.
// This package holds the accounting half.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Clock is a monotonically advancing cycle counter. The zero value is a
// clock at cycle zero, ready to use.
type Clock struct {
	cycle uint64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.cycle }

// Advance moves the clock forward by n cycles and returns the new time.
func (c *Clock) Advance(n uint64) uint64 {
	c.cycle += n
	return c.cycle
}

// AdvanceTo moves the clock forward to cycle t. It is a no-op if t is in
// the past; clocks never move backward.
func (c *Clock) AdvanceTo(t uint64) uint64 {
	if t > c.cycle {
		c.cycle = t
	}
	return c.cycle
}

// Reset returns the clock to cycle zero.
func (c *Clock) Reset() { c.cycle = 0 }

// Breakdown attributes simulated cycles to named categories (for example
// "memory", "compute", "startup"). The paper reports such breakdowns for
// every kernel/machine pair, so every simulator in this repository
// produces one. The zero value is ready to use.
//
// Breakdown and Stats are report types: an engine accumulates cycles
// and events in typed fields and builds them once per core.Result,
// because each Add or Inc is a string-keyed map update, too slow for a
// path that runs once per simulated access.
type Breakdown struct {
	categories map[string]uint64
}

// Add attributes n cycles to category name.
func (b *Breakdown) Add(name string, n uint64) {
	if b.categories == nil {
		b.categories = make(map[string]uint64)
	}
	b.categories[name] += n
}

// Get returns the cycles attributed to category name.
func (b Breakdown) Get(name string) uint64 { return b.categories[name] }

// Total returns the sum over all categories.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b.categories {
		t += v
	}
	return t
}

// Categories returns the category names in sorted order.
func (b Breakdown) Categories() []string {
	names := make([]string, 0, len(b.categories))
	for k := range b.categories {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Fraction returns category name's share of the total, in [0, 1].
// It returns 0 when the breakdown is empty.
func (b Breakdown) Fraction(name string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.categories[name]) / float64(t)
}

// Merge adds every category of other into b.
func (b *Breakdown) Merge(other Breakdown) {
	for k, v := range other.categories {
		b.Add(k, v)
	}
}

// Scale multiplies every category by num/den using integer rounding.
// It is used when a simulator extrapolates (for example Raw's CSLC
// perfect-load-balance extrapolation in the paper).
func (b *Breakdown) Scale(num, den uint64) {
	if den == 0 {
		panic("sim: Breakdown.Scale with zero denominator")
	}
	for k, v := range b.categories {
		b.categories[k] = (v*num + den/2) / den
	}
}

// Clone returns a deep copy.
func (b Breakdown) Clone() Breakdown {
	out := Breakdown{}
	for k, v := range b.categories {
		out.Add(k, v)
	}
	return out
}

// String renders the breakdown as "cat1=N (p%), cat2=M (q%)".
func (b Breakdown) String() string {
	total := b.Total()
	var sb strings.Builder
	for i, name := range b.Categories() {
		if i > 0 {
			sb.WriteString(", ")
		}
		v := b.categories[name]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(&sb, "%s=%d (%.1f%%)", name, v, pct)
	}
	return sb.String()
}

// Stats is a bag of named event counters (instructions issued, words
// transferred, bank conflicts, ...). The zero value is ready to use.
type Stats struct {
	counters map[string]uint64
}

// Inc adds n to counter name.
func (s *Stats) Inc(name string, n uint64) {
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	s.counters[name] += n
}

// Get returns counter name.
func (s Stats) Get(name string) uint64 { return s.counters[name] }

// Names returns the counter names in sorted order.
func (s Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for k := range s.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge adds every counter of other into s.
func (s *Stats) Merge(other Stats) {
	for k, v := range other.counters {
		s.Inc(k, v)
	}
}

// String renders the counters as "name=value" pairs.
func (s Stats) String() string {
	var sb strings.Builder
	for i, name := range s.Names() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", name, s.counters[name])
	}
	return sb.String()
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b uint64) uint64 {
	if b == 0 {
		panic("sim: CeilDiv by zero")
	}
	return (a + b - 1) / b
}

// PRNG is a small deterministic xorshift64* generator used for workload
// synthesis. It must stay stable across runs so experiments are
// reproducible; do not replace it with math/rand.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift has an all-zero fixed point).
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PRNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (p *PRNG) Uint64() uint64 {
	x := p.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns an approximately standard-normal variate using the
// sum of 12 uniforms (Irwin–Hall); adequate for synthetic signal noise.
func (p *PRNG) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += p.Float64()
	}
	return s - 6
}
