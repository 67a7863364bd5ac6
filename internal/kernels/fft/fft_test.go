package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"sigkern/internal/sim"
)

const tol = 1e-9

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func randomSignal(n int, seed uint64) []complex128 {
	p := sim.NewPRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(p.Float64()*2-1, p.Float64()*2-1)
	}
	return x
}

func TestNewPlanLengthValidation(t *testing.T) {
	cases := []struct {
		n     int
		radix Radix
		ok    bool
	}{
		{128, Radix2, true},
		{128, Radix4, false}, // 128 is not a power of 4
		{128, MixedRadix42, true},
		{64, Radix4, true},
		{64, MixedRadix42, false}, // 64 = 4^3, not 2*4^k
		{100, Radix2, false},      // not a power of two
		{1, Radix2, false},
		{2, Radix2, true},
		{128, Radix(3), false},
	}
	for _, c := range cases {
		_, err := NewPlan(c.n, c.radix, false)
		if (err == nil) != c.ok {
			t.Errorf("NewPlan(%d, %s): err=%v, want ok=%v", c.n, c.radix, err, c.ok)
		}
	}
}

// termDFT is the defining sum evaluated term by term, every root from
// its own cos and sin of the unreduced angle: the oracle for the root
// table NaiveDFT and NaiveIDFT read. inverse selects the +i sign and
// the 1/N scaling.
func termDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign, scale := -1.0, complex(1, 0)
	if inverse {
		sign, scale = 1, complex(float64(n), 0)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k*t) / float64(n)
			sum += x[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum / scale
	}
	return out
}

// TestNaiveMatchesTermByTermOracle pins the reference itself, including
// lengths that are not powers of two (pfb.DirectFrame passes its
// channel count).
func TestNaiveMatchesTermByTermOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 12, 64, 100, 128, 256, 1000} {
		x := randomSignal(n, uint64(n)+11)
		if e := maxErr(NaiveDFT(x), termDFT(x, false)); e > tol {
			t.Errorf("N=%d: NaiveDFT differs from the oracle by %g", n, e)
		}
		if e := maxErr(NaiveIDFT(x), termDFT(x, true)); e > tol {
			t.Errorf("N=%d: NaiveIDFT differs from the oracle by %g", n, e)
		}
	}
}

func TestAllRadicesMatchNaiveDFT(t *testing.T) {
	for _, tc := range []struct {
		n     int
		radix Radix
	}{
		{8, Radix2}, {128, Radix2}, {256, Radix2},
		{16, Radix4}, {64, Radix4}, {256, Radix4},
		{8, MixedRadix42}, {32, MixedRadix42}, {128, MixedRadix42},
	} {
		p := MustPlan(tc.n, tc.radix, false)
		x := randomSignal(tc.n, uint64(tc.n)*7+uint64(tc.radix))
		want := NaiveDFT(x)
		got := make([]complex128, tc.n)
		if err := p.Transform(got, x); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(got, want); e > 1e-8 {
			t.Errorf("N=%d %s: max error %g vs naive DFT", tc.n, tc.radix, e)
		}
	}
}

func TestRadicesAgreeWithEachOther(t *testing.T) {
	x := randomSignal(128, 99)
	r2 := make([]complex128, 128)
	mx := make([]complex128, 128)
	if err := MustPlan(128, Radix2, false).Transform(r2, x); err != nil {
		t.Fatal(err)
	}
	if err := MustPlan(128, MixedRadix42, false).Transform(mx, x); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(r2, mx); e > tol {
		t.Fatalf("radix-2 and mixed plans disagree by %g", e)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, radix := range []Radix{Radix2, MixedRadix42} {
		fwd := MustPlan(128, radix, false)
		inv := MustPlan(128, radix, true)
		x := randomSignal(128, 5)
		f := make([]complex128, 128)
		back := make([]complex128, 128)
		if err := fwd.Transform(f, x); err != nil {
			t.Fatal(err)
		}
		if err := inv.Transform(back, f); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(back, x); e > tol {
			t.Errorf("%s: IFFT(FFT(x)) error %g", radix, e)
		}
	}
}

func TestInverseMatchesNaiveIDFT(t *testing.T) {
	x := randomSignal(64, 17)
	want := NaiveIDFT(x)
	got := make([]complex128, 64)
	if err := MustPlan(64, Radix4, true).Transform(got, x); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got, want); e > 1e-9 {
		t.Fatalf("inverse radix-4 error %g vs naive IDFT", e)
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	x := make([]complex128, 128)
	x[0] = 1
	got := make([]complex128, 128)
	if err := MustPlan(128, MixedRadix42, false).Transform(got, x); err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestSingleToneLandsInOneBin(t *testing.T) {
	const n, bin = 128, 9
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(bin*i) / float64(n)
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	got := make([]complex128, n)
	if err := MustPlan(n, MixedRadix42, false).Transform(got, x); err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		want := complex(0, 0)
		if k == bin {
			want = complex(n, 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestTransformInPlaceAliasing(t *testing.T) {
	x := randomSignal(64, 3)
	want := NaiveDFT(x)
	buf := append([]complex128(nil), x...)
	if err := MustPlan(64, Radix2, false).Transform(buf, buf); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(buf, want); e > 1e-8 {
		t.Fatalf("in-place transform error %g", e)
	}
}

func TestTransformLengthMismatch(t *testing.T) {
	p := MustPlan(64, Radix2, false)
	if err := p.Transform(make([]complex128, 64), make([]complex128, 32)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := p.Transform(make([]complex128, 32), make([]complex128, 64)); err == nil {
		t.Fatal("dst length mismatch not rejected")
	}
}

// Parseval's theorem: sum |x|^2 == (1/N) sum |X|^2.
func TestParsevalProperty(t *testing.T) {
	p := MustPlan(128, MixedRadix42, false)
	f := func(seed uint64) bool {
		x := randomSignal(128, seed)
		X := make([]complex128, 128)
		if err := p.Transform(X, x); err != nil {
			return false
		}
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		return math.Abs(et-ef/128) < 1e-6*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Linearity: FFT(a*x + y) == a*FFT(x) + FFT(y).
func TestLinearityProperty(t *testing.T) {
	p := MustPlan(64, Radix4, false)
	f := func(seed uint64, scale int8) bool {
		a := complex(float64(scale)/16, 0)
		x := randomSignal(64, seed)
		y := randomSignal(64, seed+1)
		z := make([]complex128, 64)
		for i := range z {
			z[i] = a*x[i] + y[i]
		}
		X := make([]complex128, 64)
		Y := make([]complex128, 64)
		Z := make([]complex128, 64)
		_ = p.Transform(X, x)
		_ = p.Transform(Y, y)
		_ = p.Transform(Z, z)
		for i := range Z {
			if cmplx.Abs(Z[i]-(a*X[i]+Y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCountsRadix2Formula(t *testing.T) {
	p := MustPlan(128, Radix2, false)
	c := p.Counts()
	// (N/2)*log2(N) = 448 butterflies, 10 flops each.
	if got := c.Flops(); got != 4480 {
		t.Fatalf("radix-2 128-pt flops = %d, want 4480", got)
	}
	if c.Loads != 4*448 || c.Stores != 4*448 {
		t.Fatalf("radix-2 loads/stores = %d/%d", c.Loads, c.Stores)
	}
}

func TestRadix2CostsAbout1_5xRadix4(t *testing.T) {
	// The paper: "The number of operations (including loads and stores)
	// in the radix-2 FFT is about 1.5 the number in the radix-4 FFT."
	r2 := MustPlan(128, Radix2, false).Counts()
	r4 := MustPlan(128, MixedRadix42, false).Counts()
	tot2 := r2.Flops() + r2.Loads + r2.Stores
	tot4 := r4.Flops() + r4.Loads + r4.Stores
	ratio := float64(tot2) / float64(tot4)
	if ratio < 1.2 || ratio > 1.6 {
		t.Fatalf("radix-2/radix-4 op ratio = %.2f, want ~1.5", ratio)
	}
}

func TestInversePlanCountsIncludeScaling(t *testing.T) {
	fwd := MustPlan(128, Radix2, false).Counts()
	inv := MustPlan(128, Radix2, true).Counts()
	if inv.Muls != fwd.Muls+2*128 {
		t.Fatalf("inverse muls = %d, want %d", inv.Muls, fwd.Muls+2*128)
	}
}

func TestCountsAddScale(t *testing.T) {
	a := Counts{Adds: 1, Muls: 2, Loads: 3, Stores: 4, Shuffles: 5}
	b := a.Add(a)
	if b != a.Scale(2) {
		t.Fatalf("Add/Scale mismatch: %+v vs %+v", b, a.Scale(2))
	}
}

func BenchmarkFFT128Radix2(b *testing.B) {
	p := MustPlan(128, Radix2, false)
	x := randomSignal(128, 1)
	dst := make([]complex128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Transform(dst, x)
	}
}

func BenchmarkFFT128Mixed(b *testing.B) {
	p := MustPlan(128, MixedRadix42, false)
	x := randomSignal(128, 1)
	dst := make([]complex128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Transform(dst, x)
	}
}

// naiveSink keeps BenchmarkNaiveDFT's result live.
var naiveSink []complex128

// BenchmarkNaiveDFT is the reference's own cost at the paper's 128
// points, apart from the scene, weights and pipeline that
// cslc's BenchmarkVerifyCold also times.
func BenchmarkNaiveDFT(b *testing.B) {
	x := randomSignal(128, 1)
	for _, c := range []struct {
		name string
		f    func([]complex128) []complex128
	}{{"forward", NaiveDFT}, {"inverse", NaiveIDFT}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				naiveSink = c.f(x)
			}
		})
	}
}

func TestBestRadix(t *testing.T) {
	cases := map[int]Radix{
		2: Radix2, 4: Radix4, 8: MixedRadix42, 16: Radix4,
		32: MixedRadix42, 64: Radix4, 128: MixedRadix42,
		256: Radix4, 512: MixedRadix42, 100: Radix2, 0: Radix2,
	}
	for n, want := range cases {
		if got := BestRadix(n); got != want {
			t.Errorf("BestRadix(%d) = %v, want %v", n, got, want)
		}
		if n >= 2 && n&(n-1) == 0 {
			if _, err := NewPlan(n, BestRadix(n), false); err != nil {
				t.Errorf("BestRadix(%d) plan invalid: %v", n, err)
			}
		}
	}
}
