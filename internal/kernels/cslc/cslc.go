// Package cslc implements the coherent side-lobe canceller kernel: the
// radar pipeline that removes jammer interference received through a
// radar's antenna side lobes. Per the paper, the kernel "consists of
// FFTs, a weight application (multiplication) stage, and IFFTs", with
// four input channels (two main, two auxiliary), 8K samples per channel
// per processing interval, partitioned into 73 overlapping sub-bands of
// 128 samples each, all in single-precision complex arithmetic.
//
// The pipeline implemented here:
//
//  1. Sub-band windows: 73 overlapping 128-sample windows per channel.
//  2. Forward FFT of every window (radix per machine: mixed radix-4/2 on
//     VIRAM and Imagine, radix-2 on Raw).
//  3. Weight application per main channel and frequency bin:
//     out[bin] = main[bin] - sum_a w[a][bin] * aux_a[bin].
//  4. Inverse FFT of each cancelled sub-band back to the time domain.
//
// Weight estimation (per-bin least squares over the sub-band ensemble,
// with diagonal loading) is provided for the end-to-end radar example;
// the paper's timed kernel applies precomputed weights, and the machine
// models time exactly that.
package cslc

import (
	"fmt"

	"sigkern/internal/cache"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/testsig"
)

// maxAuxChannels is the most auxiliary channels the canceller supports:
// EstimateWeights solves at most a 2x2 system per bin, and the synthetic
// scene couples the jammer into two aux antennas.
const maxAuxChannels = 2

// Spec describes one CSLC problem instance.
type Spec struct {
	// MainChannels and AuxChannels count the input channels (2 + 2).
	MainChannels, AuxChannels int
	// Samples is the per-channel samples per processing interval (8192).
	Samples int
	// SubBands is the number of overlapping sub-bands (73).
	SubBands int
	// FFTSize is the per-sub-band transform length (128).
	FFTSize int
	// Radix selects the FFT decomposition (the per-machine choice).
	Radix fft.Radix
}

// PaperSpec returns the paper's instance with the given FFT radix.
func PaperSpec(radix fft.Radix) Spec {
	return Spec{MainChannels: 2, AuxChannels: 2, Samples: 8192, SubBands: 73, FFTSize: 128, Radix: radix}
}

// Absolute bounds on a spec, each at least twice the largest value the
// paper (2 main channels, 8192 samples), the FFT-size sweep (512 points;
// 292 sub-bands at 32) and the studies use. Specs arrive from the
// network: Validate checks them before it builds an FFT plan, which
// allocates an FFTSize-entry table the process keeps, and MaxBins bounds
// the spectra weight estimation holds (Channels x SubBands x FFTSize).
const (
	MaxMainChannels = 8
	MaxSamples      = 16384
	MaxSubBands     = 1024
	MaxFFTSize      = 4096
	MaxBins         = 1 << 22
)

// Validate reports whether the spec is realizable.
func (s Spec) Validate() error {
	if s.MainChannels <= 0 || s.AuxChannels < 0 {
		return fmt.Errorf("cslc: channel counts %d/%d", s.MainChannels, s.AuxChannels)
	}
	if s.AuxChannels > maxAuxChannels {
		return fmt.Errorf("cslc: %d aux channels, at most %d supported", s.AuxChannels, maxAuxChannels)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{{"MainChannels", s.MainChannels, MaxMainChannels}, {"Samples", s.Samples, MaxSamples},
		{"SubBands", s.SubBands, MaxSubBands}, {"FFTSize", s.FFTSize, MaxFFTSize}} {
		if f.v > f.max {
			return fmt.Errorf("cslc: %s %d above the %d limit", f.name, f.v, f.max)
		}
	}
	if n := s.Channels() * s.SubBands * s.FFTSize; n > MaxBins {
		return fmt.Errorf("cslc: Bins (Channels x SubBands x FFTSize) %d above the %d limit", n, MaxBins)
	}
	if s.Samples < s.FFTSize || s.FFTSize < 2 {
		return fmt.Errorf("cslc: %d samples with FFT size %d", s.Samples, s.FFTSize)
	}
	if s.SubBands < 1 {
		return fmt.Errorf("cslc: %d sub-bands", s.SubBands)
	}
	if s.SubBands > 1 && s.Hop() < 1 {
		return fmt.Errorf("cslc: %d sub-bands do not fit in %d samples", s.SubBands, s.Samples)
	}
	if _, err := fft.NewPlan(s.FFTSize, s.Radix, false); err != nil {
		return err
	}
	return nil
}

// Channels returns the total channel count.
func (s Spec) Channels() int { return s.MainChannels + s.AuxChannels }

// Hop returns the stride between successive sub-band windows. For the
// paper's numbers: (8192-128)/72 = 112 samples, a 16-sample overlap.
func (s Spec) Hop() int {
	if s.SubBands == 1 {
		return 0
	}
	return (s.Samples - s.FFTSize) / (s.SubBands - 1)
}

// ForwardFFTs returns the number of forward transforms per interval.
func (s Spec) ForwardFFTs() uint64 { return uint64(s.Channels()) * uint64(s.SubBands) }

// InverseFFTs returns the number of inverse transforms per interval.
func (s Spec) InverseFFTs() uint64 { return uint64(s.MainChannels) * uint64(s.SubBands) }

// WeightCountsPerBand returns the operation counts of the weight stage
// for one main channel's sub-band: per bin, AuxChannels complex
// multiply-subtracts.
func (s Spec) WeightCountsPerBand() fft.Counts {
	bins := uint64(s.FFTSize)
	aux := uint64(s.AuxChannels)
	return fft.Counts{
		Muls:   4 * aux * bins,         // complex multiply
		Adds:   (2*aux + 2*aux) * bins, // cmul adds + complex subtract
		Loads:  (2 + 4*aux) * bins,     // main + per-aux sample and weight
		Stores: 2 * bins,
	}
}

// TotalCounts returns the operation counts of the full timed pipeline:
// forward FFTs + weight stage + inverse FFTs.
func (s Spec) TotalCounts() (fft.Counts, error) {
	fwd, err := fft.NewPlan(s.FFTSize, s.Radix, false)
	if err != nil {
		return fft.Counts{}, err
	}
	inv, err := fft.NewPlan(s.FFTSize, s.Radix, true)
	if err != nil {
		return fft.Counts{}, err
	}
	c := fwd.Counts().Scale(s.ForwardFFTs())
	c = c.Add(inv.Counts().Scale(s.InverseFFTs()))
	c = c.Add(s.WeightCountsPerBand().Scale(uint64(s.MainChannels) * uint64(s.SubBands)))
	return c, nil
}

// Weights holds the cancellation weights: W[main][aux][bin].
type Weights struct {
	W [][][]complex128
}

// NewWeights allocates a zero weight set for spec. The per-bin rows
// subslice one backing array, so the whole set costs a fixed number of
// allocations regardless of channel counts.
func NewWeights(s Spec) *Weights {
	backing := make([]complex128, s.MainChannels*s.AuxChannels*s.FFTSize)
	w := &Weights{W: make([][][]complex128, s.MainChannels)}
	for m := range w.W {
		w.W[m] = make([][]complex128, s.AuxChannels)
		for a := range w.W[m] {
			w.W[m][a], backing = backing[:s.FFTSize:s.FFTSize], backing[s.FFTSize:]
		}
	}
	return w
}

// checkChannels reports whether channels holds the spec's channels,
// mains first, each of Samples samples.
func checkChannels(s Spec, channels [][]complex128) error {
	if len(channels) != s.Channels() {
		return fmt.Errorf("cslc: %d channels, spec wants %d", len(channels), s.Channels())
	}
	for _, x := range channels {
		if len(x) != s.Samples {
			return fmt.Errorf("cslc: channel has %d samples, spec wants %d", len(x), s.Samples)
		}
	}
	return nil
}

// window returns sub-band b of one channel's samples: FFTSize samples
// from b*Hop, read in place.
func (s Spec) window(x []complex128, b int) []complex128 {
	start := b * s.Hop()
	return x[start : start+s.FFTSize]
}

// Spectra holds per-channel, per-band frequency-domain data:
// S[channel][band][bin].
type Spectra [][][]complex128

// ForwardTransform FFTs every sub-band of every channel.
func ForwardTransform(s Spec, channels [][]complex128) (Spectra, error) {
	if err := checkChannels(s, channels); err != nil {
		return nil, err
	}
	plan, err := fft.NewPlan(s.FFTSize, s.Radix, false)
	if err != nil {
		return nil, err
	}
	out := make(Spectra, len(channels))
	for ch, x := range channels {
		out[ch] = rows(s.SubBands, s.FFTSize)
		for b, spec := range out[ch] {
			if err := plan.Transform(spec, s.window(x, b)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// rows returns n zeroed rows of width values carved from one backing
// array.
func rows(n, width int) [][]complex128 {
	backing := make([]complex128, n*width)
	out := make([][]complex128, n)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// ApplyWeights computes the cancelled spectrum of one main channel's
// sub-band: out[bin] = main[bin] - sum_a w[a][bin]*aux[a][band][bin].
func ApplyWeights(mainBand []complex128, auxBands [][]complex128, w [][]complex128) []complex128 {
	out := make([]complex128, len(mainBand))
	copy(out, mainBand)
	cancel(out, auxBands, w)
	return out
}

// cancel subtracts the weighted aux spectra from spec in place.
func cancel(spec []complex128, auxBands [][]complex128, w [][]complex128) {
	for a, aux := range auxBands {
		wa := w[a]
		for k := range spec {
			spec[k] -= wa[k] * aux[k]
		}
	}
}

// Output is the result of one CSLC interval.
type Output struct {
	// Cancelled[main][band][t] is the cancelled time-domain sub-band.
	Cancelled [][][]complex128
	// CancelledSpectra[main][band][bin] is the frequency-domain view.
	CancelledSpectra [][][]complex128
}

// Run executes the full timed pipeline on the channel set (mains first,
// then aux), applying the given weights, one sub-band at a time (see
// stream), and returns every cancelled sub-band.
func Run(s Spec, channels [][]complex128, w *Weights) (*Output, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkChannels(s, channels); err != nil {
		return nil, err
	}
	out := &Output{
		Cancelled:        make([][][]complex128, s.MainChannels),
		CancelledSpectra: make([][][]complex128, s.MainChannels),
	}
	for m := range out.Cancelled {
		out.Cancelled[m] = rows(s.SubBands, s.FFTSize)
		out.CancelledSpectra[m] = rows(s.SubBands, s.FFTSize)
	}
	err := stream(s, channels, w, func(m, b int, spec, td []complex128) error {
		copy(out.CancelledSpectra[m][b], spec)
		copy(out.Cancelled[m][b], td)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stream is the pipeline behind Run and Verify. It works one sub-band at
// a time: it forward-transforms the aux windows into scratch, then each
// main window, applies the weights to that spectrum, inverse-transforms
// it, and hands main channel m's cancelled band b to emit, as its
// spectrum and its time-domain samples, in scratch the next band reuses.
// An error from emit stops it. The spec and channels must be valid.
func stream(s Spec, channels [][]complex128, w *Weights, emit func(m, b int, spec, td []complex128) error) error {
	p, err := newPlans(s)
	if err != nil {
		return err
	}
	scratch := rows(s.AuxChannels+2, s.FFTSize)
	aux, spec, td := scratch[:s.AuxChannels], scratch[s.AuxChannels], scratch[s.AuxChannels+1]
	for b := 0; b < s.SubBands; b++ {
		for a, x := range aux {
			if err := p.forward.Transform(x, s.window(channels[s.MainChannels+a], b)); err != nil {
				return err
			}
		}
		for m := 0; m < s.MainChannels; m++ {
			if err := p.forward.Transform(spec, s.window(channels[m], b)); err != nil {
				return err
			}
			cancel(spec, aux, w.W[m])
			if err := p.inverse.Transform(td, spec); err != nil {
				return err
			}
			if err := emit(m, b, spec, td); err != nil {
				return err
			}
		}
	}
	return nil
}

// EstimateWeights computes per-bin least-squares weights from the
// channels themselves: for each main channel and bin, solve
//
//	min_w  sum_bands |main[band][bin] - sum_a w_a aux_a[band][bin]|^2
//
// via the normal equations with diagonal loading (the ensemble over 73
// sub-bands provides the averaging a real canceller gets from training
// data). This is the adaptive half of a real CSLC; the paper times only
// the application half.
func EstimateWeights(s Spec, channels [][]complex128) (*Weights, error) {
	spectra, err := ForwardTransform(s, channels)
	if err != nil {
		return nil, err
	}
	if s.AuxChannels > maxAuxChannels {
		return nil, fmt.Errorf("cslc: EstimateWeights supports at most %d aux channels, got %d", maxAuxChannels, s.AuxChannels)
	}
	w := NewWeights(s)
	auxSpectra := spectra[s.MainChannels:]
	for m := 0; m < s.MainChannels; m++ {
		for k := 0; k < s.FFTSize; k++ {
			switch s.AuxChannels {
			case 0:
				// Nothing to estimate.
			case 1:
				var num, den complex128
				for b := 0; b < s.SubBands; b++ {
					a0 := auxSpectra[0][b][k]
					num += conj(a0) * spectra[m][b][k]
					den += conj(a0) * a0
				}
				den += loading(real(den))
				w.W[m][0][k] = num / den
			case 2:
				var r00, r01, r11, p0, p1 complex128
				for b := 0; b < s.SubBands; b++ {
					a0 := auxSpectra[0][b][k]
					a1 := auxSpectra[1][b][k]
					mn := spectra[m][b][k]
					r00 += conj(a0) * a0
					r01 += conj(a0) * a1
					r11 += conj(a1) * a1
					p0 += conj(a0) * mn
					p1 += conj(a1) * mn
				}
				d := loading(real(r00) + real(r11))
				r00 += d
				r11 += d
				det := r00*r11 - r01*conj(r01)
				w.W[m][0][k] = (r11*p0 - r01*p1) / det
				w.W[m][1][k] = (r00*p1 - conj(r01)*p0) / det
			}
		}
	}
	return w, nil
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// loading returns the diagonal-loading term for a correlation trace.
func loading(trace float64) complex128 {
	return complex(1e-4*trace+1e-12, 0)
}

// Verify is the CSLC golden check. It runs the pipeline with the spec's
// FFT radix on the synthetic radar scene, weights estimated from that
// scene, and proves the first, middle and last sub-bands against the
// naive-DFT reference. Every machine model calls it once, with its own
// radix, before timing the kernel.
//
// The scene, the weights and the naive reference are pure functions of
// the spec, so they come from a process-wide memo (see goldenFor); the
// pipeline under test, Run's, executes and is compared on every call.
// Verify checks each probed band as the pipeline produces it, so it
// keeps no band the check does not read.
func Verify(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	g, err := goldenFor(s)
	if err != nil {
		return err
	}
	return stream(s, g.channels, g.w, g.ref.checkBand)
}

// probeBands returns the sub-bands Verify proves: first, middle, last.
func probeBands(s Spec) []int { return []int{0, s.SubBands / 2, s.SubBands - 1} }

// VerifyAgainstNaive recomputes the pipeline for the selected sub-bands
// with the O(N^2) naive DFT/IDFT and compares against out, sharing no
// code with the fast path. It returns the first discrepancy found.
func VerifyAgainstNaive(s Spec, channels [][]complex128, w *Weights, out *Output, bands []int) error {
	for _, b := range bands {
		if b < 0 || b >= s.SubBands {
			return fmt.Errorf("cslc: verify band %d out of range", b)
		}
	}
	return naiveReference(s, naiveSpectra(s, channels, bands), w, bands).check(out)
}

// naiveSpectra returns the naive DFT of every channel's window of each
// given sub-band, indexed [channel][i] for bands[i].
func naiveSpectra(s Spec, channels [][]complex128, bands []int) [][][]complex128 {
	out := make([][][]complex128, len(channels))
	for ch, x := range channels {
		out[ch] = make([][]complex128, len(bands))
		for i, b := range bands {
			start := b * s.Hop()
			out[ch][i] = fft.NaiveDFT(x[start : start+s.FFTSize])
		}
	}
	return out
}

// reference is the naive pipeline's answer for some sub-bands:
// want[m][i] is main channel m's cancelled sub-band bands[i], in the
// time domain.
type reference struct {
	bands []int
	want  [][][]complex128
}

// naiveReference cancels the naive spectra (from naiveSpectra over the
// same bands) with w and inverts them with the naive IDFT.
func naiveReference(s Spec, spectra [][][]complex128, w *Weights, bands []int) reference {
	want := make([][][]complex128, s.MainChannels)
	for m := range want {
		want[m] = make([][]complex128, len(bands))
		for i := range bands {
			cancelled := make([]complex128, s.FFTSize)
			copy(cancelled, spectra[m][i])
			for a := 0; a < s.AuxChannels; a++ {
				aux := spectra[s.MainChannels+a][i]
				for k := range cancelled {
					cancelled[k] -= w.W[m][a][k] * aux[k]
				}
			}
			want[m][i] = fft.NaiveIDFT(cancelled)
		}
	}
	return reference{bands: bands, want: want}
}

// check compares out with the reference, band by band, and returns the
// first discrepancy.
func (r reference) check(out *Output) error {
	for m := range r.want {
		for _, b := range r.bands {
			if err := r.checkBand(m, b, nil, out.Cancelled[m][b]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBand compares got, main channel m's cancelled sub-band b in the
// time domain, with the reference sample by sample when b is a probed
// band, and returns the first discrepancy. It has stream's emit
// signature; Verify and VerifyAgainstNaive both end here.
func (r reference) checkBand(m, b int, _, got []complex128) error {
	for i, probe := range r.bands {
		if probe != b {
			continue
		}
		ref := r.want[m][i]
		for j := range ref {
			d := ref[j] - got[j]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-12 {
				return fmt.Errorf("cslc: main %d band %d sample %d: got %v, want %v",
					m, b, j, got[j], ref[j])
			}
		}
		return nil
	}
	return nil
}

// referenceBudget bounds the bytes the reference memo retains, 1.5 MiB:
// the paper's scene (512 KiB) with its spectra and the pieces of both
// radices the machines use fits, with room for two more scenes of that
// size.
const referenceBudget = 3 << 19

// references memoizes Verify's inputs and references. Each piece is
// keyed by exactly the spec fields it reads, so specs that differ only
// in radix (the five machines of one grid) share the scene and the
// naive spectra. Pieces fill through Do, so concurrent misses on one
// key build it once. Stored values are shared read-only: nothing writes
// to a scene, spectrum, weight or reference after it is built.
var references = cache.NewSizedMemo(referenceBudget, golden.bytes)

// golden holds Verify's memoized inputs and references. A memo entry
// fills the fields of one piece: the scene (channels, which reads
// Samples, MainChannels and AuxChannels), the naive spectra of the
// probed sub-bands (which also read FFTSize and SubBands, not Radix), or
// the weights EstimateWeights derives with the spec's radix together
// with the naive reference under them (the whole spec).
type golden struct {
	channels [][]complex128
	spectra  [][][]complex128 // naiveSpectra over probeBands
	w        *Weights
	ref      reference
}

// complexBytes is the size of one complex128.
const complexBytes = 16

// bytes is what a memo entry is charged against referenceBudget.
func (g golden) bytes() int {
	n := cells(g.channels)
	for _, ch := range g.spectra {
		n += cells(ch)
	}
	if g.w != nil {
		for _, ch := range g.w.W {
			n += cells(ch)
		}
	}
	for _, ch := range g.ref.want {
		n += cells(ch)
	}
	return complexBytes * n
}

// cells counts the elements of a ragged slice.
func cells(rows [][]complex128) int {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	return n
}

// goldenFor assembles the memoized scene, weights and reference of a
// valid spec.
func goldenFor(s Spec) (golden, error) {
	scene, err := references.Do(fmt.Sprintf("scene %d %d %d", s.Samples, s.MainChannels, s.AuxChannels),
		func() (golden, error) {
			sc := testsig.DefaultScene(s.Samples)
			sc.AuxCoupling = sc.AuxCoupling[:s.AuxChannels]
			return golden{channels: sc.Channels(s.MainChannels)}, nil
		})
	if err != nil {
		return golden{}, err
	}
	bands := probeBands(s)
	spectra, err := references.Do(fmt.Sprintf("spectra %d %d %d %d %d", s.Samples, s.MainChannels, s.AuxChannels, s.FFTSize, s.SubBands),
		func() (golden, error) { return golden{spectra: naiveSpectra(s, scene.channels, bands)}, nil })
	if err != nil {
		return golden{}, err
	}
	out, err := references.Do(fmt.Sprintf("output %d %d %d %d %d %d", s.Samples, s.MainChannels, s.AuxChannels, s.FFTSize, s.SubBands, s.Radix),
		func() (golden, error) {
			w, err := EstimateWeights(s, scene.channels)
			if err != nil {
				return golden{}, err
			}
			return golden{w: w, ref: naiveReference(s, spectra.spectra, w, bands)}, nil
		})
	if err != nil {
		return golden{}, err
	}
	return golden{channels: scene.channels, w: out.w, ref: out.ref}, nil
}

// ReferenceStats reports the reference memo's hits, misses and
// retained bytes.
func ReferenceStats() (hits, misses uint64, bytes int) {
	hits, misses = references.Counters()
	return hits, misses, references.Bytes()
}

// PurgeReferenceMemo drops every memoized reference, keeping the
// counters, so the next check of each spec computes its reference again.
func PurgeReferenceMemo() { references.Purge() }

// TotalPower sums the mean power of every band of one main channel's
// output; used to measure cancellation depth.
func TotalPower(bands [][]complex128) float64 {
	var s float64
	var n int
	for _, b := range bands {
		for _, v := range b {
			s += real(v)*real(v) + imag(v)*imag(v)
		}
		n += len(b)
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
