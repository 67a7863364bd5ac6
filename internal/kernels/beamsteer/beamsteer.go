// Package beamsteer implements the beam-steering kernel: computing the
// phase command for every element of a phased-array antenna, for every
// steering direction, every dwell. Per the paper the kernel performs
// "2 reads and 1 write" and "5 additions and 1 shift" per output datum,
// with the reads hitting large per-element calibration tables — so it
// stresses memory bandwidth and latency rather than arithmetic.
//
// The concrete arithmetic realizes exactly that operation mix. Per
// output, with the direction/dwell terms held in registers:
//
//	t1  = cal[e] + grad[e]        // add 1; the two table reads
//	t2  = t1 + steer[d]           // add 2
//	t3  = t2 + dwellBase[dw]      // add 3
//	t4  = t3 + rounding           // add 4
//	out = t4 >> ShiftBits         // shift; then 1 table write
//	e++                           // add 5 (induction)
package beamsteer

import (
	"fmt"

	"sigkern/internal/kernels/testsig"
)

// Spec describes one beam-steering problem instance.
type Spec struct {
	// Elements is the number of antenna elements (1608 in the paper).
	Elements int
	// Directions is the number of beams steered per dwell (4).
	Directions int
	// Dwells is the number of dwells in one processing interval. The
	// paper does not state it; 8 makes the published per-machine cycle
	// breakdowns internally consistent (see DESIGN.md).
	Dwells int
	// ShiftBits is the fixed-point scaling shift applied to each phase.
	ShiftBits uint
	// Rounding is the fixed-point rounding constant.
	Rounding int32
}

// PaperSpec returns the paper's instance: 1608 elements, 4 directions,
// 8 dwells.
func PaperSpec() Spec {
	return Spec{Elements: 1608, Directions: 4, Dwells: 8, ShiftBits: 2, Rounding: 2}
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Elements <= 0 || s.Directions <= 0 || s.Dwells <= 0 {
		return fmt.Errorf("beamsteer: non-positive geometry %d/%d/%d",
			s.Elements, s.Directions, s.Dwells)
	}
	if s.ShiftBits > 31 {
		return fmt.Errorf("beamsteer: shift %d out of range", s.ShiftBits)
	}
	return nil
}

// Outputs returns the number of phase outputs per processing interval.
func (s Spec) Outputs() uint64 {
	return uint64(s.Elements) * uint64(s.Directions) * uint64(s.Dwells)
}

// OpsPerOutput returns the arithmetic operation count per output
// (5 adds + 1 shift, induction included).
func (s Spec) OpsPerOutput() uint64 { return 6 }

// MemPerOutput returns the memory accesses per output (2 reads + 1 write).
func (s Spec) MemPerOutput() uint64 { return 3 }

// Steer computes every phase output. The result is indexed
// [dwell][direction][element]. It is the golden reference implementation;
// machine models run the same arithmetic in their own access orders.
func Steer(spec Spec, tables *testsig.BeamTables) ([][][]int32, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(tables.ElementCal) < spec.Elements ||
		len(tables.ElementGrad) < spec.Elements ||
		len(tables.DirSteer) < spec.Directions ||
		len(tables.DwellBase) < spec.Dwells {
		return nil, fmt.Errorf("beamsteer: tables too small for spec (%d/%d/%d/%d)",
			len(tables.ElementCal), len(tables.ElementGrad),
			len(tables.DirSteer), len(tables.DwellBase))
	}
	out := make([][][]int32, spec.Dwells)
	for dw := 0; dw < spec.Dwells; dw++ {
		out[dw] = make([][]int32, spec.Directions)
		for d := 0; d < spec.Directions; d++ {
			out[dw][d] = make([]int32, spec.Elements)
			reg := tables.DirSteer[d] + tables.DwellBase[dw] + spec.Rounding
			for e := 0; e < spec.Elements; e++ {
				t1 := tables.ElementCal[e] + tables.ElementGrad[e]
				out[dw][d][e] = (t1 + reg) >> spec.ShiftBits
			}
		}
	}
	return out, nil
}

// Verify is the beam-steering golden check: it builds the synthetic
// calibration tables, runs Steer, and proves the first, middle and last
// outputs against the independent single-output formula. Every machine
// model calls it once before timing the kernel.
func Verify(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	tables := testsig.NewBeamTables(spec.Elements, spec.Directions, spec.Dwells, 7)
	out, err := Steer(spec, tables)
	if err != nil {
		return err
	}
	return checkProbes(spec, tables, out)
}

// checkProbes compares the first, middle and last outputs of out with
// SteerOne.
func checkProbes(spec Spec, tables *testsig.BeamTables, out [][][]int32) error {
	for _, p := range [][3]int{
		{0, 0, 0},
		{spec.Dwells - 1, spec.Directions - 1, spec.Elements - 1},
		{spec.Dwells / 2, 0, spec.Elements / 2},
	} {
		dw, d, e := p[0], p[1], p[2]
		if got, want := out[dw][d][e], SteerOne(spec, tables, dw, d, e); got != want {
			return fmt.Errorf("beamsteer: output %v = %d, want %d", p, got, want)
		}
	}
	return nil
}

// SteerOne computes a single output, independently of Steer's loop
// nest; Verify checks Steer against it.
func SteerOne(spec Spec, tables *testsig.BeamTables, dw, d, e int) int32 {
	t := tables.ElementCal[e] + tables.ElementGrad[e] +
		tables.DirSteer[d] + tables.DwellBase[dw] + spec.Rounding
	return t >> spec.ShiftBits
}

// Checksum digests the full output cube for cross-machine verification.
func Checksum(out [][][]int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, dw := range out {
		for _, dir := range dw {
			for _, v := range dir {
				h = (h ^ uint64(uint32(v))) * prime
			}
		}
	}
	return h
}
