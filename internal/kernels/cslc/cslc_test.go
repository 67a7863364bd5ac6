package cslc

import (
	"math"
	"slices"
	"sync"
	"testing"

	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/testsig"
)

func TestPaperSpec(t *testing.T) {
	s := PaperSpec(fft.MixedRadix42)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Hop() != 112 {
		t.Fatalf("hop = %d, want 112 ((8192-128)/72)", s.Hop())
	}
	if s.ForwardFFTs() != 4*73 {
		t.Fatalf("forward FFTs = %d, want 292", s.ForwardFFTs())
	}
	if s.InverseFFTs() != 2*73 {
		t.Fatalf("inverse FFTs = %d, want 146", s.InverseFFTs())
	}
	// Last window must end exactly at or before the sample count.
	if end := (s.SubBands-1)*s.Hop() + s.FFTSize; end > s.Samples {
		t.Fatalf("last window ends at %d > %d samples", end, s.Samples)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{MainChannels: 0, AuxChannels: 2, Samples: 8192, SubBands: 73, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 64, SubBands: 73, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 8192, SubBands: 0, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 8192, SubBands: 73, FFTSize: 128, Radix: fft.Radix4}, // 128 != 4^k
		{MainChannels: 2, AuxChannels: 2, Samples: 130, SubBands: 100, FFTSize: 128, Radix: fft.Radix2}, // hop 0
		{MainChannels: 2, AuxChannels: 3, Samples: 8192, SubBands: 73, FFTSize: 128, Radix: fft.Radix2}, // > 2 aux
		{MainChannels: 9, AuxChannels: 2, Samples: 8192, SubBands: 73, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 32768, SubBands: 73, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 8192, SubBands: 1025, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 1, AuxChannels: 0, Samples: 8192, SubBands: 1, FFTSize: 8192, Radix: fft.Radix2},
		{MainChannels: 8, AuxChannels: 2, Samples: 16384, SubBands: 1024, FFTSize: 512, Radix: fft.Radix2}, // MaxBins
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed validation", i)
		}
	}
}

// TestSubBandWindowsOverlap checks that ForwardTransform and Run read
// band b from samples b*112 .. b*112+127 of the paper's instance, so
// consecutive windows share 16 samples, and leave the channels as they
// found them.
func TestSubBandWindowsOverlap(t *testing.T) {
	s := PaperSpec(fft.Radix2)
	s.MainChannels, s.AuxChannels = 1, 0
	x := make([]complex128, s.Samples)
	for i := range x {
		x[i] = complex(float64(i), float64(-i%7))
	}
	orig := append([]complex128(nil), x...)
	spectra, err := ForwardTransform(s, [][]complex128{x})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, [][]complex128{x}, NewWeights(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(spectra[0]) != 73 || len(out.Cancelled[0]) != 73 {
		t.Fatalf("bands = %d and %d, want 73", len(spectra[0]), len(out.Cancelled[0]))
	}
	fwd, err := fft.NewPlan(s.FFTSize, s.Radix, false)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := fft.NewPlan(s.FFTSize, s.Radix, true)
	if err != nil {
		t.Fatal(err)
	}
	win := make([]complex128, s.FFTSize)
	wantSpec := make([]complex128, s.FFTSize)
	wantTime := make([]complex128, s.FFTSize)
	for b := 0; b < 73; b++ {
		for i := range win {
			win[i] = complex(float64(b*112+i), float64(-(b*112+i)%7))
		}
		if b > 0 && win[0] != x[(b-1)*112+112] {
			t.Fatal("consecutive windows do not overlap by 16 samples")
		}
		if err := fwd.Transform(wantSpec, win); err != nil {
			t.Fatal(err)
		}
		if err := inv.Transform(wantTime, wantSpec); err != nil {
			t.Fatal(err)
		}
		if !sameCells([][]complex128{spectra[0][b], out.CancelledSpectra[0][b], out.Cancelled[0][b]},
			[][]complex128{wantSpec, wantSpec, wantTime}) {
			t.Fatalf("band %d is not the transform of samples %d..%d", b, b*112, b*112+127)
		}
	}
	if !sameCells([][]complex128{x}, [][]complex128{orig}) {
		t.Fatal("the pipeline wrote to its input channel")
	}
}

// TestWrongLengthChannelRejected checks that ForwardTransform and Run
// reject a short channel and a wrong channel count.
func TestWrongLengthChannelRejected(t *testing.T) {
	s := PaperSpec(fft.Radix2)
	short := make([][]complex128, s.Channels())
	for i := range short {
		short[i] = make([]complex128, s.Samples)
	}
	short[s.Channels()-1] = make([]complex128, 100)
	if _, err := ForwardTransform(s, short); err == nil {
		t.Fatal("ForwardTransform accepted a wrong-length channel")
	}
	if _, err := Run(s, short, NewWeights(s)); err == nil {
		t.Fatal("Run accepted a wrong-length channel")
	}
	if _, err := ForwardTransform(s, short[:1]); err == nil {
		t.Fatal("ForwardTransform accepted a wrong channel count")
	}
	if _, err := Run(s, short[:1], NewWeights(s)); err == nil {
		t.Fatal("Run accepted a wrong channel count")
	}
}

// wholeArrayRun is the pipeline in its whole-array form: it copies every
// window of every channel out, forward-transforms them all, and only then
// applies the weights and inverts. It is the oracle Run, which works one
// sub-band at a time, must match bit for bit.
func wholeArrayRun(s Spec, channels [][]complex128, w *Weights) (*Output, error) {
	fwd, err := fft.NewPlan(s.FFTSize, s.Radix, false)
	if err != nil {
		return nil, err
	}
	inv, err := fft.NewPlan(s.FFTSize, s.Radix, true)
	if err != nil {
		return nil, err
	}
	spectra := make([][][]complex128, len(channels))
	for ch, x := range channels {
		spectra[ch] = make([][]complex128, s.SubBands)
		for b := range spectra[ch] {
			win := make([]complex128, s.FFTSize)
			copy(win, x[b*s.Hop():b*s.Hop()+s.FFTSize])
			spectra[ch][b] = make([]complex128, s.FFTSize)
			if err := fwd.Transform(spectra[ch][b], win); err != nil {
				return nil, err
			}
		}
	}
	out := &Output{
		Cancelled:        make([][][]complex128, s.MainChannels),
		CancelledSpectra: make([][][]complex128, s.MainChannels),
	}
	for m := 0; m < s.MainChannels; m++ {
		out.Cancelled[m] = make([][]complex128, s.SubBands)
		out.CancelledSpectra[m] = make([][]complex128, s.SubBands)
		for b := 0; b < s.SubBands; b++ {
			spec := make([]complex128, s.FFTSize)
			copy(spec, spectra[m][b])
			for a := 0; a < s.AuxChannels; a++ {
				aux := spectra[s.MainChannels+a][b]
				for k := range spec {
					spec[k] -= w.W[m][a][k] * aux[k]
				}
			}
			out.CancelledSpectra[m][b] = spec
			out.Cancelled[m][b] = make([]complex128, s.FFTSize)
			if err := inv.Transform(out.Cancelled[m][b], spec); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// TestRunMatchesWholeArrayOracle requires Run's cancelled sub-bands and
// spectra to equal wholeArrayRun's bit for bit, over shapes with zero,
// one and two aux channels (a single band among them) and every radix;
// radix-4 runs at n=64.
func TestRunMatchesWholeArrayOracle(t *testing.T) {
	shapes := []Spec{
		{MainChannels: 1, AuxChannels: 0, Samples: 700, SubBands: 9, FFTSize: 128},
		{MainChannels: 2, AuxChannels: 1, Samples: 512, SubBands: 7, FFTSize: 32},
		{MainChannels: 2, AuxChannels: 2, Samples: 1216, SubBands: 18, FFTSize: 128},
		{MainChannels: 3, AuxChannels: 2, Samples: 128, SubBands: 1, FFTSize: 128},
		{MainChannels: 2, AuxChannels: 2, Samples: 8192, SubBands: 73, FFTSize: 128},
	}
	for _, shape := range shapes {
		for _, radix := range []fft.Radix{fft.Radix2, fft.Radix4, fft.MixedRadix42} {
			s := shape
			s.Radix = radix
			if radix == fft.Radix4 {
				s.FFTSize = 64
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			scene := testsig.DefaultScene(s.Samples)
			scene.AuxCoupling = scene.AuxCoupling[:s.AuxChannels]
			channels := scene.Channels(s.MainChannels)
			w, err := EstimateWeights(s, channels)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(s, channels, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wholeArrayRun(s, channels, w)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < s.MainChannels; m++ {
				if !sameCells(got.Cancelled[m], want.Cancelled[m]) {
					t.Errorf("%+v: main %d cancelled sub-bands differ from the whole-array pipeline", s, m)
				}
				if !sameCells(got.CancelledSpectra[m], want.CancelledSpectra[m]) {
					t.Errorf("%+v: main %d cancelled spectra differ from the whole-array pipeline", s, m)
				}
			}
		}
	}
}

func smallSpec(radix fft.Radix) Spec {
	return Spec{MainChannels: 2, AuxChannels: 2, Samples: 1024, SubBands: 15, FFTSize: 128, Radix: radix}
}

func TestRunEndToEndCancelsJammer(t *testing.T) {
	s := smallSpec(fft.MixedRadix42)
	scene := testsig.DefaultScene(s.Samples)
	channels := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	// Cancellation depth: cancelled output power must be far below the
	// uncancelled main-channel power (jammer-dominated), yet above zero
	// (the target survives).
	zero := NewWeights(s)
	ref, err := Run(s, channels, zero)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < s.MainChannels; m++ {
		before := TotalPower(flatten(ref.Cancelled[m]))
		after := TotalPower(flatten(out.Cancelled[m]))
		depthDB := 10 * math.Log10(before/after)
		if depthDB < 20 {
			t.Fatalf("main %d: cancellation depth %.1f dB, want >= 20 dB", m, depthDB)
		}
		if after <= 0 {
			t.Fatalf("main %d: cancelled output is exactly zero; target destroyed", m)
		}
	}
}

func TestRunPreservesTarget(t *testing.T) {
	s := smallSpec(fft.MixedRadix42)
	scene := testsig.DefaultScene(s.Samples)
	// Jammer-free scene: weights estimated on a jammed scene must pass an
	// (almost) clean target through. Build a clean scene for reference.
	clean := scene
	clean.JammerAmp = 0
	cleanCh := clean.Channels(s.MainChannels)
	jammedCh := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, jammedCh)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, jammedCh, w)
	if err != nil {
		t.Fatal(err)
	}
	zero := NewWeights(s)
	cleanOut, err := Run(s, cleanCh, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Compare cancelled output to the clean target: within 6 dB of power.
	pc := TotalPower(flatten(cleanOut.Cancelled[0]))
	po := TotalPower(flatten(out.Cancelled[0]))
	ratio := po / pc
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("cancelled/clean power ratio = %.3f, want within 6 dB of 1", ratio)
	}
}

func TestZeroWeightsIdentity(t *testing.T) {
	s := smallSpec(fft.Radix2)
	scene := testsig.DefaultScene(s.Samples)
	channels := scene.Channels(s.MainChannels)
	out, err := Run(s, channels, NewWeights(s))
	if err != nil {
		t.Fatal(err)
	}
	// With zero weights the pipeline is FFT then IFFT: each cancelled
	// band must reproduce its input window.
	for b := 0; b < s.SubBands; b++ {
		win := s.window(channels[0], b)
		for i := range win {
			if d := absC(out.Cancelled[0][b][i] - win[i]); d > 1e-9 {
				t.Fatalf("band %d sample %d differs by %g", b, i, d)
			}
		}
	}
}

func TestRadixChoiceDoesNotChangeResults(t *testing.T) {
	s2 := smallSpec(fft.Radix2)
	sm := smallSpec(fft.MixedRadix42)
	scene := testsig.DefaultScene(s2.Samples)
	channels := scene.Channels(2)
	w, err := EstimateWeights(s2, channels)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Run(s2, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	om, err := Run(sm, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	for b := range o2.Cancelled[0] {
		for i := range o2.Cancelled[0][b] {
			if d := absC(o2.Cancelled[0][b][i] - om.Cancelled[0][b][i]); d > 1e-9 {
				t.Fatalf("radix-2 vs mixed differ at band %d sample %d by %g", b, i, d)
			}
		}
	}
}

func TestApplyWeightsKnown(t *testing.T) {
	main := []complex128{complex(2, 0), complex(0, 2)}
	aux := [][]complex128{{complex(1, 0), complex(1, 0)}}
	w := [][]complex128{{complex(1, 0), complex(0, 1)}}
	out := ApplyWeights(main, aux, w)
	if out[0] != complex(1, 0) {
		t.Fatalf("out[0] = %v, want 1", out[0])
	}
	if out[1] != complex(0, 1) {
		t.Fatalf("out[1] = %v, want i", out[1])
	}
}

func TestTotalCountsConsistency(t *testing.T) {
	s := PaperSpec(fft.Radix2)
	c, err := s.TotalCounts()
	if err != nil {
		t.Fatal(err)
	}
	// ~2M flops for the full interval: 438 transforms x 4480 flops plus
	// the weight stage. Sanity-check the magnitude.
	if c.Flops() < 1_500_000 || c.Flops() > 4_000_000 {
		t.Fatalf("paper-spec radix-2 flops = %d, want ~2-3M", c.Flops())
	}
	// The mixed-radix plan must do fewer operations.
	sm := PaperSpec(fft.MixedRadix42)
	cm, err := sm.TotalCounts()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Flops() >= c.Flops() {
		t.Fatalf("mixed radix (%d flops) not cheaper than radix-2 (%d)", cm.Flops(), c.Flops())
	}
}

func TestEstimateWeightsSingleAux(t *testing.T) {
	s := Spec{MainChannels: 1, AuxChannels: 1, Samples: 1024, SubBands: 15, FFTSize: 128, Radix: fft.Radix2}
	scene := testsig.DefaultScene(s.Samples)
	scene.AuxCoupling = scene.AuxCoupling[:1]
	channels := scene.Channels(1)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(s, channels, NewWeights(s))
	if err != nil {
		t.Fatal(err)
	}
	depth := TotalPower(flatten(ref.Cancelled[0])) / TotalPower(flatten(out.Cancelled[0]))
	if 10*math.Log10(depth) < 20 {
		t.Fatalf("single-aux cancellation depth %.1f dB, want >= 20", 10*math.Log10(depth))
	}
}

func flatten(bands [][]complex128) [][]complex128 { return bands }

func absC(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func BenchmarkCSLCPaperIntervalFunctional(b *testing.B) {
	s := PaperSpec(fft.MixedRadix42)
	scene := testsig.DefaultScene(s.Samples)
	channels := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, channels, w); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSinglePrecisionPipelineMatchesDouble(t *testing.T) {
	s := smallSpec(fft.MixedRadix42)
	scene := testsig.DefaultScene(s.Samples)
	channels := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		t.Fatal(err)
	}
	d64, err := Run(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	d32, err := RunSinglePrecision(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	// Sample-wise agreement to single-precision accuracy (relative to
	// the jammer-scale inputs).
	for b := range d64.Cancelled[0] {
		for i := range d64.Cancelled[0][b] {
			if diff := absC(d64.Cancelled[0][b][i] - d32.Cancelled[0][b][i]); diff > 1e-3 {
				t.Fatalf("band %d sample %d differs by %g between precisions", b, i, diff)
			}
		}
	}
}

func TestSinglePrecisionStillCancels(t *testing.T) {
	// The canceller must survive float32 round-off: cancellation depth
	// stays above 20 dB, the operating regime of the paper's machines.
	s := smallSpec(fft.Radix2)
	scene := testsig.DefaultScene(s.Samples)
	channels := scene.Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunSinglePrecision(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSinglePrecision(s, channels, NewWeights(s))
	if err != nil {
		t.Fatal(err)
	}
	depth := TotalPower(ref.Cancelled[0]) / TotalPower(out.Cancelled[0])
	if 10*math.Log10(depth) < 20 {
		t.Fatalf("single-precision cancellation depth %.1f dB, want >= 20", 10*math.Log10(depth))
	}
}

func TestSinglePrecisionRejectsBadInput(t *testing.T) {
	s := smallSpec(fft.Radix2)
	w := NewWeights(s)
	if _, err := RunSinglePrecision(s, make([][]complex128, 1), w); err == nil {
		t.Fatal("wrong channel count accepted")
	}
	bad := make([][]complex128, s.Channels())
	for i := range bad {
		bad[i] = make([]complex128, 10)
	}
	if _, err := RunSinglePrecision(s, bad, w); err == nil {
		t.Fatal("short channels accepted")
	}
}

// TestVerifyCatchesWrongOutput proves the golden check can fail: the
// pipeline passes Verify, and the same naive-DFT comparison rejects its
// output once one sample of a probed band is perturbed.
func TestVerifyCatchesWrongOutput(t *testing.T) {
	s := smallSpec(fft.MixedRadix42)
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
	channels := testsig.DefaultScene(s.Samples).Channels(s.MainChannels)
	w, err := EstimateWeights(s, channels)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, channels, w)
	if err != nil {
		t.Fatal(err)
	}
	bands := probeBands(s)
	if err := VerifyAgainstNaive(s, channels, w, out, bands); err != nil {
		t.Fatal(err)
	}
	out.Cancelled[1][bands[1]][5] += 1e-3
	if err := VerifyAgainstNaive(s, channels, w, out, bands); err == nil {
		t.Fatal("a perturbed sample in a probed band passed verification")
	}

	// The memoized path Verify takes must reject it too.
	hits, misses := references.Counters()
	g, err := goldenFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := references.Counters(); h != hits+2 || m != misses {
		t.Fatalf("goldenFor after Verify: %d hits %d misses -> %d hits %d misses, want two hits", hits, misses, h, m)
	}
	out, err = Run(s, g.channels, g.w)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ref.check(out); err != nil {
		t.Fatal(err)
	}
	out.Cancelled[1][bands[1]][5] += 1e-3
	if err := g.ref.check(out); err == nil {
		t.Fatal("a perturbed sample in a probed band passed the memoized check")
	}
	// So must the streamed check Verify runs: without its weights the
	// pipeline leaves the jammer in every band.
	if err := stream(s, g.channels, NewWeights(s), g.ref.checkBand); err == nil {
		t.Fatal("the streamed check passed an uncancelled pipeline")
	}
}

// memoSpecs are specs no other test verifies, so each starts cold: two
// radices of one shape (which share the scene and the reference), a
// single-aux shape, each lying strictly inside its scene's bucket, and a
// ten-channel shape whose scene is exactly Samples long.
func memoSpecs() []Spec {
	return []Spec{
		{MainChannels: 2, AuxChannels: 2, Samples: 1536, SubBands: 11, FFTSize: 128, Radix: fft.Radix2},
		{MainChannels: 2, AuxChannels: 2, Samples: 1536, SubBands: 11, FFTSize: 128, Radix: fft.MixedRadix42},
		{MainChannels: 1, AuxChannels: 1, Samples: 640, SubBands: 5, FFTSize: 64, Radix: fft.Radix4},
		{MainChannels: 8, AuxChannels: 2, Samples: 9000, SubBands: 9, FFTSize: 128, Radix: fft.Radix2},
	}
}

// TestReferenceMemoMatchesFresh verifies fresh specs, so that Run has
// consumed every memoized piece, and then rebuilds each piece without
// the memo: a scene of exactly Samples samples, the weights estimated at
// radix 2 and the naive reference under them must equal the memoized
// scene prefix, weights and reference bit for bit, whatever the spec's
// radix.
func TestReferenceMemoMatchesFresh(t *testing.T) {
	for _, s := range memoSpecs() {
		if err := Verify(s); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
	}
	for _, s := range memoSpecs() {
		g, err := goldenFor(s)
		if err != nil {
			t.Fatal(err)
		}
		scene := testsig.DefaultScene(s.Samples)
		scene.AuxCoupling = scene.AuxCoupling[:s.AuxChannels]
		channels := scene.Channels(s.MainChannels)
		r := s
		r.Radix = fft.Radix2
		w, err := EstimateWeights(r, channels)
		if err != nil {
			t.Fatal(err)
		}
		bands := probeBands(s)
		ref := naiveReference(s, naiveSpectra(s, channels, bands), w, bands)
		if !sameCells(g.channels, channels) {
			t.Errorf("%+v: memoized scene differs from a fresh one", s)
		}
		for m := range w.W {
			if !sameCells(g.w.W[m], w.W[m]) {
				t.Errorf("%+v: memoized weights of main %d differ from fresh ones", s, m)
			}
			if !sameCells(g.ref.want[m], ref.want[m]) {
				t.Errorf("%+v: memoized reference of main %d differs from a fresh one", s, m)
			}
		}
	}
}

// sameCells reports whether a and b hold bit-identical values.
func sameCells(a, b [][]complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(real(a[i][j])) != math.Float64bits(real(b[i][j])) ||
				math.Float64bits(imag(a[i][j])) != math.Float64bits(imag(b[i][j])) {
				return false
			}
		}
	}
	return true
}

// TestReferenceMemoSharesAcrossRadix checks the keying: a second radix
// of one shape reuses the scene and the reference and builds nothing.
// The ten-channel shape's bucket (16,384 samples, 2.5 MiB) would exceed
// the budget, so its scene is exactly Samples long, and is still kept.
func TestReferenceMemoSharesAcrossRadix(t *testing.T) {
	for _, c := range []struct {
		s     Spec
		scene int
	}{
		{Spec{MainChannels: 2, AuxChannels: 1, Samples: 896, SubBands: 7, FFTSize: 128}, 1024},
		{Spec{MainChannels: 8, AuxChannels: 2, Samples: 9000, SubBands: 5, FFTSize: 128}, 9000},
	} {
		s := c.s
		if n := sceneLength(s); n != c.scene {
			t.Errorf("%d samples, %d channels: scene of %d samples, want %d", s.Samples, s.Channels(), n, c.scene)
		}
		s.Radix = fft.Radix2
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		hits, misses := references.Counters()
		s.Radix = fft.MixedRadix42
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		if h, m := references.Counters(); h != hits+2 || m != misses {
			t.Errorf("%d samples, %d channels, second radix: %d hits %d misses -> %d hits %d misses, want two hits and no miss",
				s.Samples, s.Channels(), hits, misses, h, m)
		}
	}
}

// TestVerifyConcurrent verifies both radices of one fresh spec from
// several goroutines at once. Under -race it checks that Run and
// EstimateWeights only read the memoized scene, weights and reference
// the goroutines share.
func TestVerifyConcurrent(t *testing.T) {
	s := Spec{MainChannels: 2, AuxChannels: 2, Samples: 640, SubBands: 5, FFTSize: 128, Radix: fft.Radix2}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		spec := s
		if g%2 == 1 {
			spec.Radix = fft.MixedRadix42
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := Verify(spec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReferenceMemoWithinBudget verifies specs whose scenes together
// exceed the budget several times over and checks the retained bytes
// after each one. Every spec lies in the 8,192-sample bucket, and each
// has its own channel counts, so each needs its own scene of 512 KiB to
// 1.25 MiB.
func TestReferenceMemoWithinBudget(t *testing.T) {
	channels := [][2]int{{2, 2}, {3, 2}, {4, 2}, {5, 2}, {6, 2}, {7, 2}, {8, 2}, {8, 1}, {7, 1}, {6, 1}}
	scenes := 0
	for i, c := range channels {
		s := Spec{MainChannels: c[0], AuxChannels: c[1], Samples: 8192 - 64*i, SubBands: 9, FFTSize: 64, Radix: fft.Radix2}
		if n := sceneLength(s); n != 8192 {
			t.Fatalf("spec %d: scene of %d samples, want the 8192-sample bucket", i, n)
		}
		scenes += s.Channels() * 8192 * complexBytes
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		if b := references.Bytes(); b > referenceBudget {
			t.Fatalf("after spec %d: %d bytes retained, budget %d", i, b, referenceBudget)
		}
	}
	if scenes < 4*referenceBudget {
		t.Fatalf("the scenes total %d bytes, under four budgets", scenes)
	}
	if b := references.Bytes(); b < referenceBudget/2 {
		t.Fatalf("only %d bytes retained after ten paper-sized scenes", b)
	}
}

// TestScenePrefixMatchesFresh pins the property the scene memo rests
// on: the first S samples of every channel of a longer scene are the
// scene of S samples, bit for bit. It checks a prefix of the longest
// scene a spec admits and the channels sceneFor hands out, which must
// also end at Samples, so no append can reach the shared scene.
func TestScenePrefixMatchesFresh(t *testing.T) {
	for aux := 0; aux <= maxAuxChannels; aux++ {
		long := testsig.DefaultScene(MaxSamples)
		long.AuxCoupling = long.AuxCoupling[:aux]
		longChannels := long.Channels(2)
		for _, samples := range []int{255, 256, 257, 1216, 8192} {
			fresh := testsig.DefaultScene(samples)
			fresh.AuxCoupling = fresh.AuxCoupling[:aux]
			want := fresh.Channels(2)
			prefix := make([][]complex128, len(longChannels))
			for i, ch := range longChannels {
				prefix[i] = ch[:samples]
			}
			if !sameCells(prefix, want) {
				t.Errorf("%d samples, %d aux: the prefix of a %d-sample scene differs from a fresh scene", samples, aux, MaxSamples)
			}
			s := Spec{MainChannels: 2, AuxChannels: aux, Samples: samples}
			got, err := sceneFor(s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCells(got, want) {
				t.Errorf("%d samples, %d aux: sceneFor (a %d-sample scene) differs from a fresh scene", samples, aux, sceneLength(s))
			}
			for i, ch := range got {
				if cap(ch) != samples {
					t.Errorf("%d samples, %d aux: channel %d has capacity %d", samples, aux, i, cap(ch))
				}
			}
		}
	}
}

// TestProbeBandsDistinct checks that Verify proves each probed sub-band
// once, in order, when the first, middle and last bands coincide.
func TestProbeBandsDistinct(t *testing.T) {
	for _, c := range []struct {
		subBands int
		want     []int
	}{
		{1, []int{0}},
		{2, []int{0, 1}},
		{3, []int{0, 1, 2}},
		{73, []int{0, 36, 72}},
	} {
		got := probeBands(Spec{SubBands: c.subBands})
		if !slices.Equal(got, c.want) {
			t.Errorf("%d sub-bands: probe bands %v, want %v", c.subBands, got, c.want)
		}
	}
}

// BenchmarkVerifyCold is Verify's first-run cost: the memo is purged
// every iteration, so each one builds the scene, the weights and the
// reference as well as running the pipeline under test. The cslc row is
// the paper instance at radix 2. The cslc-sweep row is a sweep-sized
// spec (1,088 samples, hop 96) checked at radix 2 and at mixed
// radix-4/2, as the machines of one sweep cell check it. The
// sub-benchmark names the kernel, so the rows stay distinct from the
// corner turn's in one snapshot.
func BenchmarkVerifyCold(b *testing.B) {
	b.Run("cslc", func(b *testing.B) {
		s := PaperSpec(fft.Radix2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			references.Purge()
			if err := Verify(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cslc-sweep", func(b *testing.B) {
		s := Spec{MainChannels: 2, AuxChannels: 2, Samples: 1088, SubBands: 11, FFTSize: 128}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			references.Purge()
			for _, radix := range []fft.Radix{fft.Radix2, fft.MixedRadix42} {
				s.Radix = radix
				if err := Verify(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
