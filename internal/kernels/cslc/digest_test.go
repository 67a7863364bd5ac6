// The recorded digests hold where each floating-point product is rounded
// before it is added, as amd64 compiles it; a target that fuses
// multiply-adds, such as arm64, computes other, equally valid bits.

//go:build amd64

package cslc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"sigkern/internal/kernels/fft"
	"sigkern/internal/kernels/testsig"
)

// digest hashes the bit patterns of every value in rows, in order.
func digest(rows ...[][]complex128) string {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, x := range r {
			for _, v := range x {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
				h.Write(b[:])
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPipelineDigests pins EstimateWeights, Run and RunSinglePrecision
// bit for bit at the paper spec, a sweep-sized 2+2 spec (1,088 samples,
// hop 96) and a 2+1 spec, each at the radices its FFT size admits: every
// output must hash to its recorded digest, so a change to any operation
// or summation order fails here. RunSinglePrecision's outputs are
// float32 values widened exactly, so their float64 bits pin the float32
// ones.
func TestPipelineDigests(t *testing.T) {
	want := map[string]string{
		"paper radix-2 weights":                    "565593eadde1d165",
		"paper radix-2 Run":                        "2eeb65e903c3cd84",
		"paper radix-2 RunSinglePrecision":         "ffdd19742b5bbdc3",
		"paper mixed radix-4/2 weights":            "58fbab8a9d9e3346",
		"paper mixed radix-4/2 Run":                "3d0db4ec9d8b35b5",
		"paper mixed radix-4/2 RunSinglePrecision": "6e37222aa2c07261",
		"sweep radix-2 weights":                    "598449033a018ea1",
		"sweep radix-2 Run":                        "fb6e9fdcda798346",
		"sweep radix-2 RunSinglePrecision":         "bc5018f0ebcc48ec",
		"sweep mixed radix-4/2 weights":            "280eb38782f9dc45",
		"sweep mixed radix-4/2 Run":                "e7254edab6c1d257",
		"sweep mixed radix-4/2 RunSinglePrecision": "0fbfe1c65c5dfa6f",
		"2+1 radix-2 weights":                      "412809477d0c76cf",
		"2+1 radix-2 Run":                          "f9003ff21901fd75",
		"2+1 radix-2 RunSinglePrecision":           "1b1514b9e1d7311e",
		"2+1 radix-4 weights":                      "ac70e54d9ceeaa1e",
		"2+1 radix-4 Run":                          "8cf838a2e70094d9",
		"2+1 radix-4 RunSinglePrecision":           "b150a510e2608e7f",
	}
	sweep := Spec{MainChannels: 2, AuxChannels: 2, Samples: 1088, SubBands: 11, FFTSize: 128}
	oneAux := Spec{MainChannels: 2, AuxChannels: 1, Samples: 1024, SubBands: 15, FFTSize: 64}
	for _, c := range []struct {
		name  string
		s     Spec
		radix []fft.Radix
	}{
		{"paper", PaperSpec(0), []fft.Radix{fft.Radix2, fft.MixedRadix42}},
		{"sweep", sweep, []fft.Radix{fft.Radix2, fft.MixedRadix42}},
		{"2+1", oneAux, []fft.Radix{fft.Radix2, fft.Radix4}},
	} {
		for _, radix := range c.radix {
			s := c.s
			s.Radix = radix
			scene := testsig.DefaultScene(s.Samples)
			scene.AuxCoupling = scene.AuxCoupling[:s.AuxChannels]
			channels := scene.Channels(s.MainChannels)
			w, err := EstimateWeights(s, channels)
			if err != nil {
				t.Fatal(err)
			}
			double, err := Run(s, channels, w)
			if err != nil {
				t.Fatal(err)
			}
			single, err := RunSinglePrecision(s, channels, w)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s %s", c.name, radix)
			for _, got := range []struct{ name, digest string }{
				{name + " weights", digest(w.W...)},
				{name + " Run", digest(slices.Concat(double.Cancelled, double.CancelledSpectra)...)},
				{name + " RunSinglePrecision", digest(slices.Concat(single.Cancelled, single.CancelledSpectra)...)},
			} {
				if got.digest != want[got.name] {
					t.Errorf("%s: digest %s, want %s", got.name, got.digest, want[got.name])
				}
			}
		}
	}
}
