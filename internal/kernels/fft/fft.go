// Package fft implements the fast Fourier transforms used by the CSLC
// kernel: radix-2, radix-4 (for power-of-four lengths), and the
// mixed-radix decomposition the paper uses for N=128 ("three radix-4
// stages and one radix-2 stage"). It also exposes exact operation counts
// per plan, which the machine timing models consume, and a naive O(N^2)
// DFT as the golden reference for tests and kernel verification.
//
// The radix choice mirrors the paper's platform-specific decisions: the
// hand-optimized VIRAM and Imagine implementations use the mixed
// radix-4/radix-2 plan (fewer operations), while Raw uses plain radix-2
// because the radix-4 inner loop spilled registers on the tile processor
// ("the number of operations ... in the radix-2 FFT is about 1.5x the
// number in the radix-4 FFT").
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Radix selects the FFT decomposition.
type Radix int

const (
	// Radix2 is the classic radix-2 decimation-in-time FFT.
	Radix2 Radix = 2
	// Radix4 is a radix-4 decimation-in-time FFT; N must be a power of 4.
	Radix4 Radix = 4
	// MixedRadix42 handles N = 2 * 4^k with one radix-2 split over two
	// radix-4 sub-transforms — the paper's 128-point plan.
	MixedRadix42 Radix = 42
)

// String returns a human-readable radix name.
func (r Radix) String() string {
	switch r {
	case Radix2:
		return "radix-2"
	case Radix4:
		return "radix-4"
	case MixedRadix42:
		return "mixed radix-4/2"
	default:
		return fmt.Sprintf("radix(%d)", int(r))
	}
}

// BestRadix returns the cheapest decomposition this package implements
// for a power-of-two length: radix-4 when n is a power of four, the
// mixed radix-4/2 plan when n is twice a power of four (the paper's
// N=128 case), and radix-2 otherwise.
func BestRadix(n int) Radix {
	if n < 2 || n&(n-1) != 0 {
		return Radix2
	}
	log2n := 0
	for t := n; t > 1; t >>= 1 {
		log2n++
	}
	if log2n%2 == 0 {
		return Radix4
	}
	if n >= 8 {
		return MixedRadix42
	}
	return Radix2
}

// Counts tallies the real-arithmetic and memory operations of one
// transform. Machine models use these to generate instruction streams.
type Counts struct {
	// Adds and Muls are real floating-point additions/subtractions and
	// multiplications.
	Adds, Muls uint64
	// Loads and Stores are 32-bit word accesses (each complex sample is
	// two words).
	Loads, Stores uint64
	// Shuffles counts data-reordering element moves (bit/digit reversal
	// and butterfly exchanges), which cost instructions on vector and
	// stream machines even though they do no arithmetic.
	Shuffles uint64
}

// Flops returns total real floating-point operations.
func (c Counts) Flops() uint64 { return c.Adds + c.Muls }

// Add returns the element-wise sum of two Counts.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		Adds: c.Adds + o.Adds, Muls: c.Muls + o.Muls,
		Loads: c.Loads + o.Loads, Stores: c.Stores + o.Stores,
		Shuffles: c.Shuffles + o.Shuffles,
	}
}

// Scale returns the Counts multiplied by n.
func (c Counts) Scale(n uint64) Counts {
	return Counts{
		Adds: c.Adds * n, Muls: c.Muls * n,
		Loads: c.Loads * n, Stores: c.Stores * n,
		Shuffles: c.Shuffles * n,
	}
}

// Plan holds precomputed twiddle factors for one transform length,
// direction, and radix. A Plan is immutable after construction and safe
// for concurrent Transform calls; NewPlan returns a shared cached
// instance per (n, radix, inverse), so the trigonometric tables are
// computed once per shape no matter how many simulator runs ask.
type Plan struct {
	n       int
	radix   Radix
	inverse bool
	tw      []complex128 // forward twiddles w^k = exp(-2*pi*i*k/n)
	subTw   []complex128 // mixed-radix sub-transform twiddles (period n/2)
	counts  Counts
}

// planKey indexes the immutable-plan cache.
type planKey struct {
	n       int
	radix   Radix
	inverse bool
}

var planCache sync.Map // planKey -> *Plan

// mixedScratch pools the even/odd deinterleave buffers of the mixed
// radix-4/2 transform (one 2*(n/2) slice per in-flight Transform).
var mixedScratch = sync.Pool{New: func() any { return new([]complex128) }}

// NewPlan builds a plan for length n. It returns an error when n is not
// compatible with the radix (radix-2: power of two; radix-4: power of
// four; mixed: 2 * power of four).
func NewPlan(n int, radix Radix, inverse bool) (*Plan, error) {
	if n < 2 {
		return nil, fmt.Errorf("fft: length %d too short", n)
	}
	if bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("fft: length %d not a power of two", n)
	}
	log2n := bits.TrailingZeros(uint(n))
	switch radix {
	case Radix2:
	case Radix4:
		if log2n%2 != 0 {
			return nil, fmt.Errorf("fft: length %d not a power of 4 for %s", n, radix)
		}
	case MixedRadix42:
		if log2n%2 != 1 {
			return nil, fmt.Errorf("fft: length %d not 2*4^k for %s", n, radix)
		}
	default:
		return nil, fmt.Errorf("fft: unknown radix %d", int(radix))
	}
	key := planKey{n: n, radix: radix, inverse: inverse}
	if cached, ok := planCache.Load(key); ok {
		return cached.(*Plan), nil
	}
	p := &Plan{n: n, radix: radix, inverse: inverse}
	p.tw = make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		ang := sign * 2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	if radix == MixedRadix42 {
		// Sub-transform twiddles have period n/2; sample every other
		// entry of the full table once instead of per Transform.
		p.subTw = make([]complex128, n/2)
		for k := range p.subTw {
			p.subTw[k] = p.tw[2*k]
		}
	}
	p.counts = p.countOps()
	// Two racing builders compute bit-identical tables; keep the first.
	shared, _ := planCache.LoadOrStore(key, p)
	return shared.(*Plan), nil
}

// MustPlan is NewPlan for known-good constant arguments; it panics on error.
func MustPlan(n int, radix Radix, inverse bool) *Plan {
	p, err := NewPlan(n, radix, inverse)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Radix returns the plan's decomposition.
func (p *Plan) Radix() Radix { return p.radix }

// Inverse reports whether the plan computes the inverse transform.
func (p *Plan) Inverse() bool { return p.inverse }

// Counts returns the exact operation counts of one transform.
func (p *Plan) Counts() Counts { return p.counts }

// Transform computes the DFT of src into dst (which may alias src). The
// inverse plan applies the conventional 1/N scaling. It returns an error
// if the slice lengths do not match the plan.
func (p *Plan) Transform(dst, src []complex128) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("fft: plan length %d, got src %d dst %d", p.n, len(src), len(dst))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	switch p.radix {
	case Radix2:
		p.radix2(dst)
	case Radix4:
		p.radix4(dst, p.tw, p.n)
	case MixedRadix42:
		p.mixed(dst)
	}
	if p.inverse {
		s := complex(1/float64(p.n), 0)
		for i := range dst {
			dst[i] *= s
		}
	}
	return nil
}

// bitReverse permutes x by bit reversal in place.
func bitReverse(x []complex128) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// radix2 runs the iterative radix-2 DIT transform in place.
func (p *Plan) radix2(x []complex128) {
	n := len(x)
	bitReverse(x)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := p.tw[k*step]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// digitReverse4 permutes x by base-4 digit reversal in place.
func digitReverse4(x []complex128) {
	n := len(x)
	digits := bits.TrailingZeros(uint(n)) / 2
	rev := func(i int) int {
		r := 0
		for d := 0; d < digits; d++ {
			r = (r << 2) | (i & 3)
			i >>= 2
		}
		return r
	}
	for i := 0; i < n; i++ {
		if j := rev(i); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// radix4 runs an iterative radix-4 DIT transform in place over x of
// length m, using twiddles tw defined over period twN (twN >= m and
// m divides twN).
func (p *Plan) radix4(x []complex128, tw []complex128, twN int) {
	m := len(x)
	digitReverse4(x)
	imSign := complex(0, -1) // multiply by -j for the forward transform
	if p.inverse {
		imSign = complex(0, 1)
	}
	for size := 4; size <= m; size <<= 2 {
		quarter := size / 4
		step := twN / size
		for start := 0; start < m; start += size {
			for k := 0; k < quarter; k++ {
				w1 := tw[(k*step)%twN]
				w2 := tw[(2*k*step)%twN]
				w3 := tw[(3*k*step)%twN]
				a := x[start+k]
				b := x[start+k+quarter] * w1
				c := x[start+k+2*quarter] * w2
				d := x[start+k+3*quarter] * w3
				apc := a + c
				amc := a - c
				bpd := b + d
				bmd := (b - d) * imSign
				x[start+k] = apc + bpd
				x[start+k+quarter] = amc + bmd
				x[start+k+2*quarter] = apc - bpd
				x[start+k+3*quarter] = amc - bmd
			}
		}
	}
}

// mixed computes N = 2*4^k via one radix-2 DIT split whose two halves are
// radix-4 transforms, matching the paper's three-radix-4-stages-plus-one-
// radix-2-stage plan for N=128.
func (p *Plan) mixed(x []complex128) {
	n := len(x)
	half := n / 2
	buf := mixedScratch.Get().(*[]complex128)
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	scratch := (*buf)[:n]
	even, odd := scratch[:half], scratch[half:]
	for i := 0; i < half; i++ {
		even[i] = x[2*i]
		odd[i] = x[2*i+1]
	}
	p.radix4(even, p.subTw, half)
	p.radix4(odd, p.subTw, half)
	for k := 0; k < half; k++ {
		t := odd[k] * p.tw[k]
		x[k] = even[k] + t
		x[k+half] = even[k] - t
	}
	mixedScratch.Put(buf)
}

// countOps walks the plan's loop structure and returns exact operation
// counts. Complex multiply = 4 real muls + 2 real adds; complex add = 2
// real adds. Multiplications by unit twiddles are counted (the paper's
// kernels were hand-scheduled but still execute those slots on SIMD
// machines).
func (p *Plan) countOps() Counts {
	var c Counts
	n := uint64(p.n)
	switch p.radix {
	case Radix2:
		stages := uint64(bits.TrailingZeros(uint(p.n)))
		bflies := (n / 2) * stages
		c.Muls = 4 * bflies
		c.Adds = 2*bflies + 4*bflies // cmul adds + 2 complex adds
		c.Loads = 4 * bflies         // two complex operands
		c.Stores = 4 * bflies
		c.Shuffles = n // bit reversal moves
	case Radix4:
		stages := uint64(bits.TrailingZeros(uint(p.n))) / 2
		bflies := (n / 4) * stages
		// 3 cmuls + 8 complex add/sub per radix-4 butterfly.
		c.Muls = 12 * bflies
		c.Adds = 6*bflies + 16*bflies
		c.Loads = 8 * bflies
		c.Stores = 8 * bflies
		c.Shuffles = n
	case MixedRadix42:
		sub, err := NewPlan(p.n/2, Radix4, p.inverse)
		if err != nil {
			panic(err)
		}
		c = sub.Counts().Scale(2)
		half := n / 2
		// Final radix-2 combine: one cmul + 2 complex adds per pair.
		c.Muls += 4 * half
		c.Adds += 2*half + 4*half
		c.Loads += 4 * half
		c.Stores += 4 * half
		c.Shuffles += n // the even/odd deinterleave
	}
	if p.inverse {
		// 1/N scaling: one real mul per real component.
		c.Muls += 2 * n
		c.Loads += 2 * n
		c.Stores += 2 * n
	}
	return c
}

// NaiveDFT computes the O(N^2) discrete Fourier transform by its
// defining sum; it is the golden reference for tests and verification.
func NaiveDFT(x []complex128) []complex128 { return directSum(x, -1) }

// NaiveIDFT computes the O(N^2) inverse DFT with 1/N scaling.
func NaiveIDFT(x []complex128) []complex128 {
	out := directSum(x, 1)
	for k := range out {
		out[k] /= complex(float64(len(x)), 0)
	}
	return out
}

// directSum returns out[k] = sum_t x[t]*exp(sign*2*pi*i*k*t/n). It
// builds its own table of the n roots of unity, one Sincos each, and
// reads root[k*t mod n], carrying the index without division; sharing
// no table with Plan's twiddles keeps the reference independent of the
// fast path it checks.
//
// Since root[(n-k)*t mod n] is conj(root[k*t mod n]), one pass over x
// yields both out[k] and out[n-k]: with x[t] = xr + i*xi and the root
// c + i*s, it sums the four products xr*c, xi*s, xr*s and xi*c over t,
// and
//
//	out[k]   = (Σ xr*c - Σ xi*s) + i*(Σ xr*s + Σ xi*c)
//	out[n-k] = (Σ xr*c + Σ xi*s) + i*(Σ xi*c - Σ xr*s)
//
// Bin 0, and bin n/2 when n is even, pair with themselves.
func directSum(x []complex128, sign float64) []complex128 {
	n := len(x)
	root := make([]complex128, n)
	for j := range root {
		s, c := math.Sincos(sign * 2 * math.Pi * float64(j) / float64(n))
		root[j] = complex(c, s)
	}
	out := make([]complex128, n)
	for k := 0; k < n && 2*k <= n; k++ {
		var rc, is, rs, ic float64
		j := 0
		for _, v := range x {
			c, s := real(root[j]), imag(root[j])
			if j += k; j >= n {
				j -= n
			}
			rc += real(v) * c
			is += imag(v) * s
			rs += real(v) * s
			ic += imag(v) * c
		}
		out[k] = complex(rc-is, rs+ic)
		if k > 0 && 2*k < n {
			out[n-k] = complex(rc+is, ic-rs)
		}
	}
	return out
}
