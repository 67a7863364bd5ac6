package cornerturn

import (
	"testing"
	"testing/quick"

	"sigkern/internal/cache"
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
		{Rows: MaxDim + 1, Cols: 4, BlockSize: 2},
		{Rows: 4, Cols: 100_000, BlockSize: 2},
		{Rows: 4, Cols: 4, BlockSize: MaxDim + 1},
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
	hits, _ := references.Counters()
	if err := VerifySynthetic(48, 40, swapped); err == nil {
		t.Fatal("a transpose with two elements swapped passed verification")
	}
	if after, _ := references.Counters(); after != hits+1 {
		t.Fatal("the swapped transpose was not checked against the memoized reference")
	}
}

// freshReference computes the reference checksum of the synthetic
// rows x cols source without the memo.
func freshReference(rows, cols int) uint64 {
	src := testsig.NewMatrix(rows, cols, syntheticSeed)
	ref := testsig.ZeroMatrix(cols, rows)
	if err := Transpose(ref, src); err != nil {
		panic(err)
	}
	return Checksum(ref)
}

// TestReferenceMemoMatchesFresh verifies several shapes with each
// transposer, so every memoized checksum has served formulations under
// test, then recomputes each reference without the memo.
func TestReferenceMemoMatchesFresh(t *testing.T) {
	shapes := [][2]int{{1, 1}, {3, 5}, {17, 33}, {64, 64}, {130, 7}}
	for _, sh := range shapes {
		for _, transpose := range []func(dst, src *testsig.Matrix) error{
			func(dst, src *testsig.Matrix) error { return TransposeBlocked(dst, src, 16) },
			func(dst, src *testsig.Matrix) error { return TransposeStrips(dst, src, 4) },
			Transpose,
		} {
			if err := VerifySynthetic(sh[0], sh[1], transpose); err != nil {
				t.Fatalf("%dx%d: %v", sh[0], sh[1], err)
			}
		}
	}
	for _, sh := range shapes {
		src := testsig.NewMatrix(sh[0], sh[1], syntheticSeed)
		before, _ := references.Counters()
		memo, err := referenceChecksum(src)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := references.Counters(); after != before+1 {
			t.Fatalf("%dx%d: reference was not memoized", sh[0], sh[1])
		}
		if fresh := freshReference(sh[0], sh[1]); memo != fresh {
			t.Fatalf("%dx%d: memoized checksum %x, fresh %x", sh[0], sh[1], memo, fresh)
		}
	}
}

// TestReferenceMemoWithinBudget verifies more shapes than the memo can
// hold and checks the retained bytes after every one.
func TestReferenceMemoWithinBudget(t *testing.T) {
	shapes := 2 * referenceBudget / referenceEntryBytes
	for cols := 1; cols <= shapes; cols++ {
		if err := VerifySynthetic(1, cols, Transpose); err != nil {
			t.Fatal(err)
		}
		if b := references.Bytes(); b > referenceBudget {
			t.Fatalf("after %d shapes: %d bytes retained, budget %d", cols, b, referenceBudget)
		}
	}
	if n := references.Len(); n >= shapes {
		t.Fatalf("%d entries for %d shapes: nothing was evicted", n, shapes)
	}
}

// BenchmarkVerifyCold is VerifySynthetic's first-run cost at the paper
// size: every process-wide memo is purged every iteration, so each one computes the
// naive reference as well as the blocked transpose under test. The
// sub-benchmark names the kernel, so the row stays distinct from the
// CSLC one in one snapshot.
func BenchmarkVerifyCold(b *testing.B) {
	b.Run("corner-turn", func(b *testing.B) {
		s := PaperSpec()
		blocked := func(dst, src *testsig.Matrix) error { return TransposeBlocked(dst, src, s.BlockSize) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.PurgeProcessMemos()
			if err := VerifySynthetic(s.Rows, s.Cols, blocked); err != nil {
				b.Fatal(err)
			}
		}
	})
}
