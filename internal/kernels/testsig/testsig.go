// Package testsig generates the deterministic synthetic workloads that
// stand in for the paper's radar data: matrices for the corner turn,
// multi-channel sampled signals with injected jammers for the CSLC, and
// calibration tables for beam steering.
//
// The paper's kernels ran on classified/unavailable radar data sets; all
// three kernels are data-oblivious (control flow never depends on sample
// values), so deterministic synthetic data exercises identical code
// paths. Seeds are fixed so every experiment is reproducible bit-for-bit.
package testsig

import (
	"math"
	"sync"

	"sigkern/internal/sim"
)

// Matrix is a dense row-major matrix of 32-bit elements, the corner-turn
// operand ("1024 x 1024 with 4-byte elements").
type Matrix struct {
	Rows, Cols int
	Data       []int32
}

// NewMatrix returns a Rows x Cols matrix filled with a deterministic
// pattern derived from seed.
func NewMatrix(rows, cols int, seed uint64) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}
	m.Fill(seed)
	return m
}

// ZeroMatrix returns an all-zero Rows x Cols matrix.
func ZeroMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}
}

// matrixPool recycles matrix backings between simulator runs: every
// corner-turn run stages three multi-megabyte matrices that would
// otherwise be reallocated per job.
var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// GetMatrix returns a Rows x Cols matrix drawn from the pool; its
// contents are unspecified (fill or clear it before reading). Release
// it when done to recycle the backing.
func GetMatrix(rows, cols int) *Matrix {
	m := matrixPool.Get().(*Matrix)
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]int32, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// Release returns the matrix to the pool. The caller must not touch it
// (or any slice of its Data) afterwards.
func (m *Matrix) Release() { matrixPool.Put(m) }

// Fill overwrites the matrix with the deterministic pattern derived
// from seed (the same pattern NewMatrix produces).
func (m *Matrix) Fill(seed uint64) {
	p := sim.NewPRNG(seed)
	for i := range m.Data {
		m.Data[i] = int32(p.Uint64())
	}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) int32 { return m.Data[r*m.Cols+c] }

// Set writes element (r, c).
func (m *Matrix) Set(r, c int, v int32) { m.Data[r*m.Cols+c] = v }

// Bytes returns the matrix footprint in bytes.
func (m *Matrix) Bytes() int { return len(m.Data) * 4 }

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if m.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// RadarScene describes the synthetic CSLC input: a desired target return
// plus jammer interference, received on main and auxiliary channels.
type RadarScene struct {
	// Samples per channel (8192 in the paper).
	Samples int
	// TargetFreq and JammerFreq are normalized frequencies in (0, 0.5).
	TargetFreq, JammerFreq float64
	// TargetAmp and JammerAmp are linear amplitudes.
	TargetAmp, JammerAmp float64
	// NoiseAmp is the per-channel white-noise amplitude.
	NoiseAmp float64
	// AuxCoupling is the complex gain of the jammer as seen on each
	// auxiliary channel relative to the main channels (what the canceller
	// must estimate implicitly through its weights).
	AuxCoupling []complex128
	// Seed drives the deterministic noise generator.
	Seed uint64
}

// DefaultScene returns the scene used throughout the examples: a weak
// target 40 dB below a strong jammer, the regime where a side-lobe
// canceller matters.
func DefaultScene(samples int) RadarScene {
	return RadarScene{
		Samples:    samples,
		TargetFreq: 0.11, JammerFreq: 0.27,
		TargetAmp: 0.01, JammerAmp: 1.0, NoiseAmp: 0.001,
		AuxCoupling: []complex128{complex(0.8, 0.3), complex(-0.5, 0.6)},
		Seed:        1,
	}
}

// Channels synthesizes the channel set: nMain main channels (target +
// jammer + noise) followed by len(AuxCoupling) auxiliary channels
// (coupled jammer + noise, no target — the aux antennas point at the
// jammer, not the target). It draws sample by sample, every channel's
// sample t before any sample t+1, so the first n samples of each channel
// are bit for bit the channels of the same scene with Samples = n.
func (s RadarScene) Channels(nMain int) [][]complex128 {
	p := sim.NewPRNG(s.Seed)
	nAux := len(s.AuxCoupling)
	chans := make([][]complex128, nMain+nAux)
	backing := make([]complex128, (nMain+nAux)*s.Samples)
	for i := range chans {
		chans[i], backing = backing[:s.Samples:s.Samples], backing[s.Samples:]
	}
	for t := 0; t < s.Samples; t++ {
		jr, ji := math.Sincos(2 * math.Pi * s.JammerFreq * float64(t))
		jam := complex(ji, jr) * complex(s.JammerAmp, 0)
		tr, ti := math.Sincos(2 * math.Pi * s.TargetFreq * float64(t))
		tgt := complex(ti, tr) * complex(s.TargetAmp, 0)
		for m := 0; m < nMain; m++ {
			noise := complex(p.NormFloat64(), p.NormFloat64()) * complex(s.NoiseAmp, 0)
			chans[m][t] = tgt + jam + noise
		}
		for a, g := range s.AuxCoupling {
			noise := complex(p.NormFloat64(), p.NormFloat64()) * complex(s.NoiseAmp, 0)
			chans[nMain+a][t] = jam*g + noise
		}
	}
	return chans
}

// Power returns the mean squared magnitude of x.
func Power(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

// BeamTables holds the calibration tables that beam steering reads: one
// entry per antenna element and one per steering direction. "Large tables
// are used for calibration tables" — these are the memory-bandwidth
// stressors of the kernel.
type BeamTables struct {
	// ElementCal is the per-element phase calibration (fixed-point).
	// It is the first of the kernel's two per-output table reads.
	ElementCal []int32
	// ElementGrad is the per-element phase-gradient trim, the second
	// per-output table read.
	ElementGrad []int32
	// DirSteer is the per-direction steering phase offset (small,
	// register-resident during the inner loop).
	DirSteer []int32
	// DwellBase is the per-dwell base phase (register-resident).
	DwellBase []int32
}

// NewBeamTables builds deterministic tables for the given geometry.
func NewBeamTables(elements, directions, dwells int, seed uint64) *BeamTables {
	p := sim.NewPRNG(seed)
	t := &BeamTables{
		ElementCal:  make([]int32, elements),
		ElementGrad: make([]int32, elements),
		DirSteer:    make([]int32, directions),
		DwellBase:   make([]int32, dwells),
	}
	for i := range t.ElementCal {
		t.ElementCal[i] = int32(p.Uint64() & 0xFFFF)
	}
	for i := range t.ElementGrad {
		t.ElementGrad[i] = int32(p.Uint64() & 0xFFF)
	}
	for i := range t.DirSteer {
		t.DirSteer[i] = int32(p.Uint64() & 0xFFFFF)
	}
	for i := range t.DwellBase {
		t.DwellBase[i] = int32(p.Uint64() & 0xFFFF)
	}
	return t
}
