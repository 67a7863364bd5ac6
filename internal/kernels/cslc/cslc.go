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
//  1. Sub-band extraction: 73 overlapping 128-sample windows per channel.
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

// Validate reports whether the spec is realizable.
func (s Spec) Validate() error {
	if s.MainChannels <= 0 || s.AuxChannels < 0 {
		return fmt.Errorf("cslc: channel counts %d/%d", s.MainChannels, s.AuxChannels)
	}
	if s.AuxChannels > maxAuxChannels {
		return fmt.Errorf("cslc: %d aux channels, at most %d supported", s.AuxChannels, maxAuxChannels)
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

// ExtractSubBands copies the spec's overlapping windows out of one
// channel's samples.
func ExtractSubBands(s Spec, x []complex128) ([][]complex128, error) {
	if len(x) != s.Samples {
		return nil, fmt.Errorf("cslc: channel has %d samples, spec wants %d", len(x), s.Samples)
	}
	hop := s.Hop()
	// One backing array for all windows: band extraction runs once per
	// channel per interval, and 73 separate 128-sample allocations per
	// call dominated the allocation profile.
	backing := make([]complex128, s.SubBands*s.FFTSize)
	bands := make([][]complex128, s.SubBands)
	for b := 0; b < s.SubBands; b++ {
		start := b * hop
		w := backing[b*s.FFTSize : (b+1)*s.FFTSize : (b+1)*s.FFTSize]
		copy(w, x[start:start+s.FFTSize])
		bands[b] = w
	}
	return bands, nil
}

// Spectra holds per-channel, per-band frequency-domain data:
// S[channel][band][bin].
type Spectra [][][]complex128

// ForwardTransform FFTs every sub-band of every channel.
func ForwardTransform(s Spec, channels [][]complex128) (Spectra, error) {
	if len(channels) != s.Channels() {
		return nil, fmt.Errorf("cslc: %d channels, spec wants %d", len(channels), s.Channels())
	}
	plan, err := fft.NewPlan(s.FFTSize, s.Radix, false)
	if err != nil {
		return nil, err
	}
	out := make(Spectra, len(channels))
	for ch, x := range channels {
		bands, err := ExtractSubBands(s, x)
		if err != nil {
			return nil, err
		}
		backing := make([]complex128, len(bands)*s.FFTSize)
		out[ch] = make([][]complex128, len(bands))
		for b, w := range bands {
			spec := backing[b*s.FFTSize : (b+1)*s.FFTSize : (b+1)*s.FFTSize]
			if err := plan.Transform(spec, w); err != nil {
				return nil, err
			}
			out[ch][b] = spec
		}
	}
	return out, nil
}

// ApplyWeights computes the cancelled spectrum of one main channel's
// sub-band: out[bin] = main[bin] - sum_a w[a][bin]*aux[a][band][bin].
func ApplyWeights(mainBand []complex128, auxBands [][]complex128, w [][]complex128) []complex128 {
	out := make([]complex128, len(mainBand))
	applyWeightsInto(out, mainBand, auxBands, w)
	return out
}

// applyWeightsInto is ApplyWeights writing into caller-owned storage.
func applyWeightsInto(out, mainBand []complex128, auxBands [][]complex128, w [][]complex128) {
	copy(out, mainBand)
	for a, aux := range auxBands {
		wa := w[a]
		for k := range out {
			out[k] -= wa[k] * aux[k]
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
// then aux), applying the given weights.
func Run(s Spec, channels [][]complex128, w *Weights) (*Output, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	spectra, err := ForwardTransform(s, channels)
	if err != nil {
		return nil, err
	}
	inv, err := fft.NewPlan(s.FFTSize, s.Radix, true)
	if err != nil {
		return nil, err
	}
	out := &Output{
		Cancelled:        make([][][]complex128, s.MainChannels),
		CancelledSpectra: make([][][]complex128, s.MainChannels),
	}
	auxSpectra := spectra[s.MainChannels:]
	auxBands := make([][]complex128, s.AuxChannels)
	for m := 0; m < s.MainChannels; m++ {
		// Bulk backings for the channel's time- and frequency-domain
		// outputs (2 allocations instead of 2 per sub-band).
		tdBacking := make([]complex128, s.SubBands*s.FFTSize)
		fdBacking := make([]complex128, s.SubBands*s.FFTSize)
		out.Cancelled[m] = make([][]complex128, s.SubBands)
		out.CancelledSpectra[m] = make([][]complex128, s.SubBands)
		for b := 0; b < s.SubBands; b++ {
			for a := 0; a < s.AuxChannels; a++ {
				auxBands[a] = auxSpectra[a][b]
			}
			spec := fdBacking[b*s.FFTSize : (b+1)*s.FFTSize : (b+1)*s.FFTSize]
			applyWeightsInto(spec, spectra[m][b], auxBands, w.W[m])
			out.CancelledSpectra[m][b] = spec
			td := tdBacking[b*s.FFTSize : (b+1)*s.FFTSize : (b+1)*s.FFTSize]
			if err := inv.Transform(td, spec); err != nil {
				return nil, err
			}
			out.Cancelled[m][b] = td
		}
	}
	return out, nil
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
func Verify(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	scene := testsig.DefaultScene(s.Samples)
	scene.AuxCoupling = scene.AuxCoupling[:s.AuxChannels]
	channels := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		return err
	}
	out, err := Run(s, channels, w)
	if err != nil {
		return err
	}
	return VerifyAgainstNaive(s, channels, w, out, probeBands(s))
}

// probeBands returns the sub-bands Verify proves: first, middle, last.
func probeBands(s Spec) []int { return []int{0, s.SubBands / 2, s.SubBands - 1} }

// VerifyAgainstNaive recomputes the pipeline for the selected sub-bands
// with the O(N^2) naive DFT/IDFT and compares against out, sharing no
// code with the fast path. It returns the first discrepancy found.
func VerifyAgainstNaive(s Spec, channels [][]complex128, w *Weights, out *Output, bands []int) error {
	for m := 0; m < s.MainChannels; m++ {
		for _, b := range bands {
			if b < 0 || b >= s.SubBands {
				return fmt.Errorf("cslc: verify band %d out of range", b)
			}
			start := b * s.Hop()
			mainSpec := fft.NaiveDFT(channels[m][start : start+s.FFTSize])
			cancelled := make([]complex128, s.FFTSize)
			copy(cancelled, mainSpec)
			for a := 0; a < s.AuxChannels; a++ {
				auxSpec := fft.NaiveDFT(channels[s.MainChannels+a][start : start+s.FFTSize])
				for k := range cancelled {
					cancelled[k] -= w.W[m][a][k] * auxSpec[k]
				}
			}
			ref := fft.NaiveIDFT(cancelled)
			got := out.Cancelled[m][b]
			for i := range ref {
				d := ref[i] - got[i]
				if real(d)*real(d)+imag(d)*imag(d) > 1e-12 {
					return fmt.Errorf("cslc: main %d band %d sample %d: got %v, want %v",
						m, b, i, got[i], ref[i])
				}
			}
		}
	}
	return nil
}

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
