package cornerturn

import (
	"testing"
	"testing/quick"

	"sigkern/internal/kernels/testsig"
)

func TestPaperSpec(t *testing.T) {
	s := PaperSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Words() != 1<<20 {
		t.Fatalf("paper matrix words = %d, want 1M", s.Words())
	}
	// The paper's sizing argument: bigger than the 128 KB SRF and Raw's
	// 2 MB SRAM, smaller than VIRAM's 13 MB DRAM.
	bytes := s.Words() * 4
	if bytes <= 128<<10 || bytes <= 2<<20 || bytes >= 13<<20 {
		t.Fatalf("matrix bytes %d violate the paper's sizing constraints", bytes)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Rows: 0, Cols: 4, BlockSize: 2},
		{Rows: 4, Cols: -1, BlockSize: 2},
		{Rows: 4, Cols: 4, BlockSize: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed validation", i)
		}
	}
}

func TestTransposeSmallKnown(t *testing.T) {
	src := testsig.ZeroMatrix(2, 3)
	v := int32(1)
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			src.Set(r, c, v)
			v++
		}
	}
	dst := testsig.ZeroMatrix(3, 2)
	if err := Transpose(dst, src); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst.Data = %v, want %v", dst.Data, want)
		}
	}
}

func TestTransposeShapeMismatch(t *testing.T) {
	src := testsig.NewMatrix(4, 8, 1)
	bad := testsig.ZeroMatrix(4, 8)
	if err := Transpose(bad, src); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
	if err := TransposeBlocked(bad, src, 2); err == nil {
		t.Fatal("blocked: shape mismatch not rejected")
	}
	if err := TransposeStrips(bad, src, 2); err == nil {
		t.Fatal("strips: shape mismatch not rejected")
	}
}

func TestVariantsAgree(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {16, 32}, {33, 17}, {64, 64}, {100, 7}} {
		src := testsig.NewMatrix(dims[0], dims[1], uint64(dims[0]*1000+dims[1]))
		ref := testsig.ZeroMatrix(dims[1], dims[0])
		if err := Transpose(ref, src); err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{1, 4, 16, 100} {
			got := testsig.ZeroMatrix(dims[1], dims[0])
			if err := TransposeBlocked(got, src, block); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%dx%d block=%d: blocked transpose differs", dims[0], dims[1], block)
			}
		}
		for _, strips := range []int{1, 4, 5} {
			got := testsig.ZeroMatrix(dims[1], dims[0])
			if err := TransposeStrips(got, src, strips); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%dx%d strips=%d: strip transpose differs", dims[0], dims[1], strips)
			}
		}
	}
}

// Property: transpose is an involution — T(T(x)) == x.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(rseed uint64, rdim, cdim uint8) bool {
		rows := int(rdim)%32 + 1
		cols := int(cdim)%32 + 1
		src := testsig.NewMatrix(rows, cols, rseed)
		once := testsig.ZeroMatrix(cols, rows)
		twice := testsig.ZeroMatrix(rows, cols)
		if err := Transpose(once, src); err != nil {
			return false
		}
		if err := Transpose(twice, once); err != nil {
			return false
		}
		return twice.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: element (r,c) of the source appears at (c,r) of the result.
func TestTransposeElementMapProperty(t *testing.T) {
	src := testsig.NewMatrix(16, 24, 3)
	dst := testsig.ZeroMatrix(24, 16)
	if err := TransposeBlocked(dst, src, 5); err != nil {
		t.Fatal(err)
	}
	f := func(ri, ci uint8) bool {
		r := int(ri) % 16
		c := int(ci) % 24
		return dst.At(c, r) == src.At(r, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsDifferences(t *testing.T) {
	a := testsig.NewMatrix(8, 8, 1)
	b := testsig.NewMatrix(8, 8, 1)
	if Checksum(a) != Checksum(b) {
		t.Fatal("identical matrices have different checksums")
	}
	b.Set(3, 3, b.At(3, 3)+1)
	if Checksum(a) == Checksum(b) {
		t.Fatal("modified matrix has identical checksum")
	}
	// Shape must matter even with identical data.
	c := &testsig.Matrix{Rows: 4, Cols: 16, Data: a.Data}
	if Checksum(a) == Checksum(c) {
		t.Fatal("reshaped matrix has identical checksum")
	}
}

func TestChecksumPositionSensitive(t *testing.T) {
	a := testsig.ZeroMatrix(2, 2)
	a.Set(0, 0, 1)
	b := testsig.ZeroMatrix(2, 2)
	b.Set(1, 1, 1)
	if Checksum(a) == Checksum(b) {
		t.Fatal("checksum ignores element position")
	}
}

func BenchmarkTransposeNaive1024(b *testing.B) {
	src := testsig.NewMatrix(1024, 1024, 1)
	dst := testsig.ZeroMatrix(1024, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Transpose(dst, src)
	}
}

func BenchmarkTransposeBlocked1024(b *testing.B) {
	src := testsig.NewMatrix(1024, 1024, 1)
	dst := testsig.ZeroMatrix(1024, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = TransposeBlocked(dst, src, 64)
	}
}

// TestVerifySyntheticCatchesSwap proves the golden check can fail: a
// blocked transpose passes, and the same transpose with two output
// elements swapped does not.
func TestVerifySyntheticCatchesSwap(t *testing.T) {
	blocked := func(dst, src *testsig.Matrix) error { return TransposeBlocked(dst, src, 16) }
	if err := VerifySynthetic(48, 40, blocked); err != nil {
		t.Fatal(err)
	}
	swapped := func(dst, src *testsig.Matrix) error {
		if err := blocked(dst, src); err != nil {
			return err
		}
		last := len(dst.Data) - 1
		if dst.Data[0] == dst.Data[last] {
			t.Fatal("swap candidates are equal; pick other elements")
		}
		dst.Data[0], dst.Data[last] = dst.Data[last], dst.Data[0]
		return nil
	}
	if err := VerifySynthetic(48, 40, swapped); err == nil {
		t.Fatal("a transpose with two elements swapped passed verification")
	}
}
