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

// Absolute bounds on a spec, far above the paper's 1608/4/8. Specs
// arrive from the network, and the machine models walk every output.
const (
	MaxElements   = 65536
	MaxDirections = 256
	MaxDwells     = 4096
	MaxOutputs    = 1 << 24
)

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Elements <= 0 || s.Directions <= 0 || s.Dwells <= 0 {
		return fmt.Errorf("beamsteer: non-positive geometry %d/%d/%d",
			s.Elements, s.Directions, s.Dwells)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{{"Elements", s.Elements, MaxElements}, {"Directions", s.Directions, MaxDirections}, {"Dwells", s.Dwells, MaxDwells}} {
		if f.v > f.max {
			return fmt.Errorf("beamsteer: %s %d above the %d limit", f.name, f.v, f.max)
		}
	}
	if n := s.Outputs(); n > MaxOutputs {
		return fmt.Errorf("beamsteer: Outputs (Elements x Directions x Dwells) %d above the %d limit", n, MaxOutputs)
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
	var out [][][]int32
	err := steerRows(spec, tables, func(dw, d int, row []int32) error {
		if d == 0 {
			out = append(out, make([][]int32, spec.Directions))
		}
		out[dw][d] = append([]int32(nil), row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// steerRows runs Steer's loop nest and hands each (dwell, direction)
// row of outputs to emit as soon as it is computed, dwell-major. The row
// buffer is reused, so emit must not keep it.
func steerRows(spec Spec, tables *testsig.BeamTables, emit func(dw, d int, row []int32) error) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(tables.ElementCal) < spec.Elements ||
		len(tables.ElementGrad) < spec.Elements ||
		len(tables.DirSteer) < spec.Directions ||
		len(tables.DwellBase) < spec.Dwells {
		return fmt.Errorf("beamsteer: tables too small for spec (%d/%d/%d/%d)",
			len(tables.ElementCal), len(tables.ElementGrad),
			len(tables.DirSteer), len(tables.DwellBase))
	}
	row := make([]int32, spec.Elements)
	for dw := 0; dw < spec.Dwells; dw++ {
		for d := 0; d < spec.Directions; d++ {
			reg := tables.DirSteer[d] + tables.DwellBase[dw] + spec.Rounding
			for e := range row {
				t1 := tables.ElementCal[e] + tables.ElementGrad[e]
				row[e] = (t1 + reg) >> spec.ShiftBits
			}
			if err := emit(dw, d, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify is the beam-steering golden check: it builds the synthetic
// calibration tables, runs Steer's loop nest, and proves the first,
// middle and last outputs against the independent single-output
// formula as their rows come out, keeping no output cube. core.Prove
// calls it before a machine times the kernel, once per spec per process.
func Verify(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	tables := testsig.NewBeamTables(spec.Elements, spec.Directions, spec.Dwells, 7)
	seen := 0
	err := steerRows(spec, tables, func(dw, d int, row []int32) error {
		n, err := checkRow(spec, tables, dw, d, row)
		seen += n
		return err
	})
	if err == nil && seen != len(probes(spec)) {
		err = fmt.Errorf("beamsteer: %d of %d probed outputs produced", seen, len(probes(spec)))
	}
	return err
}

// probes are the [dwell, direction, element] outputs Verify proves:
// the first, the last and one in the middle.
func probes(spec Spec) [][3]int {
	return [][3]int{
		{0, 0, 0},
		{spec.Dwells - 1, spec.Directions - 1, spec.Elements - 1},
		{spec.Dwells / 2, 0, spec.Elements / 2},
	}
}

// checkRow compares the probed outputs in row, the outputs of dwell dw
// and direction d, with SteerOne, and reports how many it checked.
func checkRow(spec Spec, tables *testsig.BeamTables, dw, d int, row []int32) (int, error) {
	n := 0
	for _, p := range probes(spec) {
		if p[0] != dw || p[1] != d {
			continue
		}
		n++
		if got, want := row[p[2]], SteerOne(spec, tables, dw, d, p[2]); got != want {
			return n, fmt.Errorf("beamsteer: output %v = %d, want %d", p, got, want)
		}
	}
	return n, nil
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
