package beamsteer

import (
	"testing"
	"testing/quick"

	"sigkern/internal/kernels/testsig"
)

func tables(spec Spec) *testsig.BeamTables {
	return testsig.NewBeamTables(spec.Elements, spec.Directions, spec.Dwells, 7)
}

func TestPaperSpec(t *testing.T) {
	s := PaperSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Elements != 1608 || s.Directions != 4 {
		t.Fatalf("paper geometry wrong: %+v", s)
	}
	if s.Outputs() != 1608*4*8 {
		t.Fatalf("Outputs = %d", s.Outputs())
	}
	if s.OpsPerOutput() != 6 || s.MemPerOutput() != 3 {
		t.Fatal("per-output op mix does not match the paper (5 adds + 1 shift, 2R+1W)")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Elements: 0, Directions: 4, Dwells: 1},
		{Elements: 4, Directions: 0, Dwells: 1},
		{Elements: 4, Directions: 4, Dwells: 0},
		{Elements: 4, Directions: 4, Dwells: 1, ShiftBits: 40},
		{Elements: MaxElements + 1, Directions: 1, Dwells: 1},
		{Elements: 4, Directions: MaxDirections + 1, Dwells: 1},
		{Elements: 4, Directions: 4, Dwells: MaxDwells + 1},
		{Elements: MaxElements, Directions: MaxDirections, Dwells: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed validation", i)
		}
	}
	if err := (Spec{Elements: MaxElements, Directions: MaxDirections, Dwells: 1}).Validate(); err != nil {
		t.Errorf("a spec at every bound (2^24 outputs): %v", err)
	}
}

func TestSteerShape(t *testing.T) {
	s := Spec{Elements: 10, Directions: 3, Dwells: 2, ShiftBits: 1}
	out, err := Steer(s, tables(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0]) != 3 || len(out[0][0]) != 10 {
		t.Fatalf("shape = %d/%d/%d", len(out), len(out[0]), len(out[0][0]))
	}
}

func TestSteerTablesTooSmall(t *testing.T) {
	s := Spec{Elements: 10, Directions: 3, Dwells: 2}
	small := testsig.NewBeamTables(5, 3, 2, 1)
	if _, err := Steer(s, small); err == nil {
		t.Fatal("undersized tables not rejected")
	}
}

func TestSteerMatchesSteerOne(t *testing.T) {
	s := Spec{Elements: 32, Directions: 4, Dwells: 3, ShiftBits: 2, Rounding: 2}
	tb := tables(s)
	out, err := Steer(s, tb)
	if err != nil {
		t.Fatal(err)
	}
	for dw := 0; dw < s.Dwells; dw++ {
		for d := 0; d < s.Directions; d++ {
			for e := 0; e < s.Elements; e++ {
				if got, want := out[dw][d][e], SteerOne(s, tb, dw, d, e); got != want {
					t.Fatalf("out[%d][%d][%d] = %d, want %d", dw, d, e, got, want)
				}
			}
		}
	}
}

func TestKnownValue(t *testing.T) {
	s := Spec{Elements: 1, Directions: 1, Dwells: 1, ShiftBits: 1, Rounding: 1}
	tb := &testsig.BeamTables{
		ElementCal: []int32{100}, ElementGrad: []int32{10},
		DirSteer: []int32{200}, DwellBase: []int32{50},
	}
	out, err := Steer(s, tb)
	if err != nil {
		t.Fatal(err)
	}
	// (100+10+200+50+1) >> 1 = 361 >> 1 = 180.
	if out[0][0][0] != 180 {
		t.Fatalf("value = %d, want 180", out[0][0][0])
	}
}

// Property: the per-element phase difference within one beam equals the
// difference of the element tables — direction and dwell terms cancel.
func TestGradientProperty(t *testing.T) {
	s := Spec{Elements: 64, Directions: 2, Dwells: 2, ShiftBits: 0}
	tb := tables(s)
	out, err := Steer(s, tb)
	if err != nil {
		t.Fatal(err)
	}
	f := func(ei, di, dwi uint8) bool {
		e := int(ei)%(s.Elements-1) + 1
		d := int(di) % s.Directions
		dw := int(dwi) % s.Dwells
		diff := out[dw][d][e] - out[dw][d][e-1]
		tabDiff := (tb.ElementCal[e] + tb.ElementGrad[e]) -
			(tb.ElementCal[e-1] + tb.ElementGrad[e-1])
		return diff == tabDiff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: two directions with equal steer entries give equal beams.
func TestDirectionSeparationProperty(t *testing.T) {
	s := Spec{Elements: 16, Directions: 2, Dwells: 1, ShiftBits: 0}
	tb := tables(s)
	tb.DirSteer[1] = tb.DirSteer[0]
	out, err := Steer(s, tb)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < s.Elements; e++ {
		if out[0][0][e] != out[0][1][e] {
			t.Fatal("equal steering entries produced different beams")
		}
	}
}

func TestChecksumSensitivity(t *testing.T) {
	s := Spec{Elements: 8, Directions: 2, Dwells: 2, ShiftBits: 0}
	tb := tables(s)
	a, _ := Steer(s, tb)
	b, _ := Steer(s, tb)
	if Checksum(a) != Checksum(b) {
		t.Fatal("deterministic steer gave different checksums")
	}
	b[1][1][3]++
	if Checksum(a) == Checksum(b) {
		t.Fatal("checksum missed a changed output")
	}
}

func BenchmarkSteerPaperSpec(b *testing.B) {
	s := PaperSpec()
	tb := testsig.NewBeamTables(s.Elements, s.Directions, s.Dwells, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Steer(s, tb); err != nil {
			b.Fatal(err)
		}
	}
}

// checkProbes runs Verify's per-row probe check over a whole cube and
// reports how many probes it checked.
func checkProbes(spec Spec, tables *testsig.BeamTables, out [][][]int32) (int, error) {
	seen := 0
	for dw := range out {
		for d := range out[dw] {
			n, err := checkRow(spec, tables, dw, d, out[dw][d])
			seen += n
			if err != nil {
				return seen, err
			}
		}
	}
	return seen, nil
}

// TestVerifyCatchesWrongOutput proves the golden check can fail: Steer's
// cube passes the probe comparison, and changing any one probed output
// makes it fail.
func TestVerifyCatchesWrongOutput(t *testing.T) {
	s := Spec{Elements: 13, Directions: 4, Dwells: 3, ShiftBits: 2, Rounding: 2}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
	tb := tables(s)
	out, err := Steer(s, tb)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := checkProbes(s, tb, out); err != nil || n != 3 {
		t.Fatalf("Steer's cube: %v, %d probes checked", err, n)
	}
	for _, p := range [][3]int{{0, 0, 0}, {2, 3, 12}, {1, 0, 6}} {
		out[p[0]][p[1]][p[2]]++
		if _, err := checkProbes(s, tb, out); err == nil {
			t.Errorf("changed output %v passed verification", p)
		}
		out[p[0]][p[1]][p[2]]--
	}
}

// TestVerifyStreamsRows pins that Verify's check reads the rows
// steerRows produces: rows computed without the rounding constant fail
// it, and a grid short of the last direction leaves a probe unchecked.
func TestVerifyStreamsRows(t *testing.T) {
	s := Spec{Elements: 13, Directions: 4, Dwells: 3, ShiftBits: 2, Rounding: 2}
	tb := tables(s)
	run := func(rows Spec) (int, error) {
		seen := 0
		err := steerRows(rows, tb, func(dw, d int, row []int32) error {
			n, err := checkRow(s, tb, dw, d, row)
			seen += n
			return err
		})
		return seen, err
	}
	if n, err := run(s); err != nil || n != 3 {
		t.Fatalf("steerRows under the probe check: %v, %d probes checked", err, n)
	}
	noRounding := s
	noRounding.Rounding = 0
	if _, err := run(noRounding); err == nil {
		t.Error("rows computed without the rounding constant passed the probe check")
	}
	short := s
	short.Directions = 3
	if n, err := run(short); err != nil || n == 3 {
		t.Errorf("a grid short of the last direction: %v, %d probes checked; want fewer than 3", err, n)
	}
}

// BenchmarkVerify is the golden check's cost at the paper size; it keeps
// one row, not the output cube.
func BenchmarkVerify(b *testing.B) {
	s := PaperSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(s); err != nil {
			b.Fatal(err)
		}
	}
}
