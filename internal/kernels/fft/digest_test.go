// The recorded digests hold where each floating-point product is rounded
// before it is added, as amd64 compiles it; a target that fuses
// multiply-adds, such as arm64, computes other, equally valid bits.

//go:build amd64

package fft

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// digest128 hashes the bit patterns of x's real and imaginary parts.
func digest128(x []complex128) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digest64 is digest128 at single precision.
func digest64(x []complex64) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(real(v)))
		h.Write(b[:])
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(imag(v)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTransformDigests pins Transform and Transform32 bit for bit, for
// every radix at two or three lengths, forward and inverse: each output
// must hash to its recorded digest, so a change to any operation or its
// order at either precision fails here.
func TestTransformDigests(t *testing.T) {
	want := map[string]string{
		"radix-2 n=8 inverse=false complex128":           "62cc42f89e84fc05",
		"radix-2 n=8 inverse=false complex64":            "7943368d0892a05d",
		"radix-2 n=8 inverse=true complex128":            "495da19d39424834",
		"radix-2 n=8 inverse=true complex64":             "6b4edc2d2ed182bc",
		"radix-2 n=128 inverse=false complex128":         "44880bcc7aea69f9",
		"radix-2 n=128 inverse=false complex64":          "e689408f4d186afe",
		"radix-2 n=128 inverse=true complex128":          "bd4d71673e0947a1",
		"radix-2 n=128 inverse=true complex64":           "d0390598c55d8960",
		"radix-4 n=16 inverse=false complex128":          "b41ec644323b692b",
		"radix-4 n=16 inverse=false complex64":           "1ce2fb47a451a512",
		"radix-4 n=16 inverse=true complex128":           "86e58c92c3dac117",
		"radix-4 n=16 inverse=true complex64":            "b4a193787535c13a",
		"radix-4 n=256 inverse=false complex128":         "2d6bf01221d3d68f",
		"radix-4 n=256 inverse=false complex64":          "2d648ed45eef69f1",
		"radix-4 n=256 inverse=true complex128":          "a9d4c9035bb61be7",
		"radix-4 n=256 inverse=true complex64":           "5964e09adccccf0d",
		"mixed radix-4/2 n=32 inverse=false complex128":  "c3c21da0c248c607",
		"mixed radix-4/2 n=32 inverse=false complex64":   "dec22a5a9a4afa87",
		"mixed radix-4/2 n=32 inverse=true complex128":   "faeeae30954632e8",
		"mixed radix-4/2 n=32 inverse=true complex64":    "d15f0ae39c734b86",
		"mixed radix-4/2 n=128 inverse=false complex128": "96787d15178e3937",
		"mixed radix-4/2 n=128 inverse=false complex64":  "f4dbe118d6cf0ccb",
		"mixed radix-4/2 n=128 inverse=true complex128":  "1f1daaef314c1b36",
		"mixed radix-4/2 n=128 inverse=true complex64":   "f2df2d0c1cd5194b",
		"mixed radix-4/2 n=512 inverse=false complex128": "95ab255437456f40",
		"mixed radix-4/2 n=512 inverse=false complex64":  "ef2d56c475e15555",
		"mixed radix-4/2 n=512 inverse=true complex128":  "e6227db731dec4bc",
		"mixed radix-4/2 n=512 inverse=true complex64":   "d1c67684cafa30d3",
	}
	for _, c := range []struct {
		n     int
		radix Radix
	}{
		{8, Radix2}, {128, Radix2}, {16, Radix4}, {256, Radix4},
		{32, MixedRadix42}, {128, MixedRadix42}, {512, MixedRadix42},
	} {
		for _, inverse := range []bool{false, true} {
			p := MustPlan(c.n, c.radix, inverse)
			x := randomSignal(c.n, uint64(c.n)+uint64(c.radix))
			d := make([]complex128, c.n)
			if err := p.Transform(d, x); err != nil {
				t.Fatal(err)
			}
			s := make([]complex64, c.n)
			if err := p.Transform32(s, to32(x)); err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct{ name, digest string }{
				{fmt.Sprintf("%s n=%d inverse=%t complex128", c.radix, c.n, inverse), digest128(d)},
				{fmt.Sprintf("%s n=%d inverse=%t complex64", c.radix, c.n, inverse), digest64(s)},
			} {
				if got.digest != want[got.name] {
					t.Errorf("%s: digest %s, want %s", got.name, got.digest, want[got.name])
				}
			}
		}
	}
}
