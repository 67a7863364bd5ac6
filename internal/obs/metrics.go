package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Labels identifies one (machine, kernel) cell of the paper's Table 3 —
// the label set every per-cell metric series is keyed by. The zero
// value means "unlabeled"; vectors expose no series for observations
// made with it, so internal plumbing (stub tasks, tests) never mints
// empty-label series.
type Labels struct {
	Machine string
	Kernel  string
}

// IsZero reports whether the label set carries no information.
func (l Labels) IsZero() bool { return l.Machine == "" && l.Kernel == "" }

// pairs returns the cell's label pairs followed by extra pairs.
func (l Labels) pairs(extra ...string) []string {
	return append([]string{"machine", l.Machine, "kernel", l.Kernel}, extra...)
}

// Counter is one monotonically increasing series. All methods are
// atomic and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a family of counters keyed by Labels. With is a map
// read under an RWMutex on the hot path; child creation (first
// observation of a cell) takes the write lock once.
type CounterVec struct {
	mu       sync.RWMutex
	children map[Labels]*Counter
	// zero counts observations made with zero Labels: Total includes
	// them, the exposition does not.
	zero Counter
}

// With returns the counter for l, creating it on first use. The zero
// Labels value returns the family's unexposed zero-label counter, so
// unlabeled call sites cost an atomic add and nothing else.
func (v *CounterVec) With(l Labels) *Counter {
	if l.IsZero() {
		return &v.zero
	}
	v.mu.RLock()
	c, ok := v.children[l]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[l]; ok {
		return c
	}
	c = &Counter{}
	v.children[l] = c
	return c
}

// Total returns the family's count over every series, zero-label
// observations included: the family's unlabeled total.
func (v *CounterVec) Total() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := v.zero.Value()
	for _, c := range v.children {
		n += c.Value()
	}
	return n
}

// Gauge is one instantaneous-value series (a float64 set atomically via
// its bit pattern). All methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a family of gauges keyed by Labels. Like CounterVec it
// exposes no series for zero Labels; it keeps no value for them either.
type GaugeVec struct {
	mu       sync.RWMutex
	children map[Labels]*Gauge
}

// With returns the gauge for l, creating it on first use. The zero
// Labels value returns a shared throwaway gauge that is never exposed.
func (v *GaugeVec) With(l Labels) *Gauge {
	if l.IsZero() {
		return &discardGauge
	}
	v.mu.RLock()
	g, ok := v.children[l]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[l]; ok {
		return g
	}
	g = &Gauge{}
	v.children[l] = g
	return g
}

// discardGauge absorbs observations made with zero Labels.
var discardGauge Gauge

// Values returns a copy of every (labels, value) pair, sorted by
// machine then kernel for stable exposition.
func (v *GaugeVec) Values() []LabeledValue {
	v.mu.RLock()
	out := make([]LabeledValue, 0, len(v.children))
	for l, g := range v.children {
		out = append(out, LabeledValue{Labels: l, Value: g.Value()})
	}
	v.mu.RUnlock()
	sortLabeled(out)
	return out
}

// Values returns a copy of every (labels, count) pair, sorted by
// machine then kernel for stable exposition.
func (v *CounterVec) Values() []LabeledValue {
	v.mu.RLock()
	out := make([]LabeledValue, 0, len(v.children))
	for l, c := range v.children {
		out = append(out, LabeledValue{Labels: l, Value: float64(c.Value())})
	}
	v.mu.RUnlock()
	sortLabeled(out)
	return out
}

// LabeledValue is one exposed sample of a vector.
type LabeledValue struct {
	Labels Labels
	Value  float64
}

func sortLabeled(s []LabeledValue) {
	sort.Slice(s, func(i, j int) bool { return s[i].Labels.less(s[j].Labels) })
}

// less orders cells by machine, then kernel.
func (l Labels) less(o Labels) bool {
	if l.Machine != o.Machine {
		return l.Machine < o.Machine
	}
	return l.Kernel < o.Kernel
}

// DefBuckets are the default latency histogram bounds in seconds:
// cache hits land in the sub-millisecond buckets, simulator executions
// in the milliseconds-to-minutes range.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is one fixed-bucket latency distribution. Observations are
// two atomic adds plus a binary search over the (immutable) bounds;
// cumulative bucket counts are computed at exposition time.
type Histogram struct {
	bounds   []float64 // upper bounds in seconds, ascending
	counts   []atomic.Uint64
	inf      atomic.Uint64 // observations above the last bound
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s, i.e. the `le` bucket
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 {
	return time.Duration(h.sumNanos.Load()).Seconds()
}

// Cumulative returns the bucket upper bounds and the cumulative count
// at or below each — the Prometheus `_bucket{le=...}` series, excluding
// the trailing +Inf (which equals Count).
func (h *Histogram) Cumulative() (bounds []float64, cum []uint64) {
	cum = make([]uint64, len(h.bounds))
	var total uint64
	for i := range h.bounds {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return h.bounds, cum
}

// HistogramVec is a family of histograms keyed by Labels, sharing one
// set of bucket bounds.
type HistogramVec struct {
	bounds []float64

	mu       sync.RWMutex
	children map[Labels]*Histogram
}

// With returns the histogram for l, creating it on first use. The zero
// Labels value returns an unexposed throwaway, like CounterVec.With.
func (v *HistogramVec) With(l Labels) *Histogram {
	if l.IsZero() {
		return newHistogram(v.bounds)
	}
	v.mu.RLock()
	h, ok := v.children[l]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[l]; ok {
		return h
	}
	h = newHistogram(v.bounds)
	v.children[l] = h
	return h
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// samples returns every child's _bucket, _sum and _count series,
// children sorted by machine then kernel.
func (v *HistogramVec) samples() []Sample {
	type child struct {
		l Labels
		h *Histogram
	}
	v.mu.RLock()
	children := make([]child, 0, len(v.children))
	for l, h := range v.children {
		children = append(children, child{l, h})
	}
	v.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool { return children[i].l.less(children[j].l) })
	var out []Sample
	for _, c := range children {
		l, h := c.l, c.h
		bounds, cum := h.Cumulative()
		for i, ub := range bounds {
			out = append(out, Sample{suffix: "_bucket", Labels: l.pairs("le", formatFloat(ub)), Value: strconv.FormatUint(cum[i], 10)})
		}
		total := strconv.FormatUint(h.Count(), 10)
		out = append(out,
			Sample{suffix: "_bucket", Labels: l.pairs("le", "+Inf"), Value: total},
			Sample{suffix: "_sum", Labels: l.pairs(), Value: formatFloat(h.Sum())},
			Sample{suffix: "_count", Labels: l.pairs(), Value: total})
	}
	return out
}

// Registry is the ordered list of metric families one daemon exposes;
// the exposition walks them in registration order. Registration happens
// at construction; observation never touches the registry.
type Registry struct {
	mu       sync.Mutex
	families []family
}

// family is one exposition family; collect reads its samples at scrape
// time.
type family struct {
	name, help, typ string
	collect         func() []Sample
}

// Sample is one series of a family: its label pairs (key, value, ...)
// and its rendered value.
type Sample struct {
	Labels []string
	Value  string
	suffix string // _bucket, _sum or _count for histogram series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Func registers a family of type typ ("counter", "gauge" or
// "histogram") whose samples collect reads at scrape time. A family
// without samples is left out of the exposition.
func (r *Registry) Func(name, help, typ string, collect func() []Sample) {
	r.mu.Lock()
	r.families = append(r.families, family{name, help, typ, collect})
	r.mu.Unlock()
}

// Uint registers an unlabeled family whose one value read returns at
// scrape time.
func (r *Registry) Uint(name, help, typ string, read func() uint64) {
	r.Func(name, help, typ, func() []Sample { return []Sample{{Value: strconv.FormatUint(read(), 10)}} })
}

// Names returns the registered family names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.Uint(name, help, "counter", c.Value)
	return c
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string) *CounterVec {
	v := &CounterVec{children: make(map[Labels]*Counter)}
	r.Func(name, help, "counter", func() []Sample { return cellSamples(v.Values()) })
	return v
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string) *GaugeVec {
	v := &GaugeVec{children: make(map[Labels]*Gauge)}
	r.Func(name, help, "gauge", func() []Sample { return cellSamples(v.Values()) })
	return v
}

// NewHistogramVec registers and returns a labeled histogram family.
// nil buckets means DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	v := &HistogramVec{bounds: buckets, children: make(map[Labels]*Histogram)}
	r.Func(name, help, "histogram", v.samples)
	return v
}

func cellSamples(vals []LabeledValue) []Sample {
	out := make([]Sample, len(vals))
	for i, lv := range vals {
		out[i] = Sample{Labels: lv.Labels.pairs(), Value: formatFloat(lv.Value)}
	}
	return out
}
