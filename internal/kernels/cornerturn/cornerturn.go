// Package cornerturn implements the corner-turn kernel: an out-of-place
// matrix transpose of 32-bit elements, the pure memory-bandwidth test of
// the paper ("the data in the source matrix is transposed and stored in
// the destination matrix"). The paper's operand is 1024 x 1024 x 4 bytes:
// larger than Imagine's 128 KB SRF and Raw's 2 MB of on-chip SRAM, but
// smaller than VIRAM's 13 MB on-chip DRAM.
//
// Three functional variants are provided: the naive transpose, a
// cache-blocked transpose (what the G4 and Raw use), and a strip
// transpose that mirrors Imagine's multi-row-strip streaming
// formulation; one strip of every row is VIRAM's column order. All
// produce identical results; they differ only in access order, which is
// what the machine models account for. A Transposer names one blocked
// or strip formulation as a value. The golden check, VerifySynthetic,
// compares a formulation's output with a reference checksum that
// transposes nothing.
package cornerturn

import (
	"fmt"
	"math/bits"
	"strconv"

	"sigkern/internal/cache"
	"sigkern/internal/kernels/testsig"
)

// Spec describes one corner-turn problem instance.
type Spec struct {
	Rows, Cols int
	// BlockSize is the tile edge for blocked variants (16 on VIRAM,
	// 64 on Raw per the paper).
	BlockSize int
}

// PaperSpec returns the paper's 1024 x 1024 x 4-byte instance.
func PaperSpec() Spec { return Spec{Rows: 1024, Cols: 1024, BlockSize: 16} }

// MaxDim bounds Rows, Cols and BlockSize: twice the largest matrix edge
// the size sweep runs (2048), so each operand is at most 64 MiB. Specs
// arrive from the network, and verification allocates three matrices.
const MaxDim = 4096

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("cornerturn: non-positive dimensions %dx%d", s.Rows, s.Cols)
	}
	if s.BlockSize <= 0 {
		return fmt.Errorf("cornerturn: non-positive block size %d", s.BlockSize)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Rows", s.Rows}, {"Cols", s.Cols}, {"BlockSize", s.BlockSize}} {
		if f.v > MaxDim {
			return fmt.Errorf("cornerturn: %s %d above the %d limit", f.name, f.v, MaxDim)
		}
	}
	return nil
}

// Words returns the number of 32-bit elements moved (one read and one
// write each).
func (s Spec) Words() uint64 { return uint64(s.Rows) * uint64(s.Cols) }

// MoveOps returns the instruction-issue cost of the transpose: one load
// and one store per element, with no arithmetic between them. On
// machines without wide memory operations this issue rate, not the
// memory system, can be the binding bound (Raw in the paper's Table 4).
func (s Spec) MoveOps() uint64 { return 2 * s.Words() }

// Transpose computes dst = src^T with a simple doubly nested loop. dst
// must be Cols x Rows when src is Rows x Cols.
func Transpose(dst, src *testsig.Matrix) error {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		return fmt.Errorf("cornerturn: dst %dx%d incompatible with src %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols)
	}
	for r := 0; r < src.Rows; r++ {
		row := src.Data[r*src.Cols : (r+1)*src.Cols]
		for c, v := range row {
			dst.Data[c*dst.Cols+r] = v
		}
	}
	return nil
}

// TransposeBlocked computes dst = src^T in block x block tiles, the
// access order used by cache-based machines and by VIRAM's vector-
// register staging. Dimensions need not be multiples of block.
func TransposeBlocked(dst, src *testsig.Matrix, block int) error {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		return fmt.Errorf("cornerturn: dst %dx%d incompatible with src %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols)
	}
	if block <= 0 {
		return fmt.Errorf("cornerturn: block size %d", block)
	}
	for r0 := 0; r0 < src.Rows; r0 += block {
		r1 := min(r0+block, src.Rows)
		for c0 := 0; c0 < src.Cols; c0 += block {
			c1 := min(c0+block, src.Cols)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					dst.Data[c*dst.Cols+r] = src.Data[r*src.Cols+c]
				}
			}
		}
	}
	return nil
}

// TransposeStrips computes dst = src^T by reading `strips` row-strips at
// a time and interleaving them into column-major output order — the
// Imagine formulation ("we divide the matrix into multi-row strips ...
// four input streams and one output stream").
func TransposeStrips(dst, src *testsig.Matrix, strips int) error {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		return fmt.Errorf("cornerturn: dst %dx%d incompatible with src %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols)
	}
	if strips <= 0 {
		return fmt.Errorf("cornerturn: strip count %d", strips)
	}
	for r0 := 0; r0 < src.Rows; r0 += strips {
		r1 := min(r0+strips, src.Rows)
		// The clusters route strip elements into output order: for each
		// column, emit the strip's elements contiguously.
		for c := 0; c < src.Cols; c++ {
			for r := r0; r < r1; r++ {
				dst.Data[c*dst.Cols+r] = src.Data[r*src.Cols+c]
			}
		}
	}
	return nil
}

// Transposer names one transpose formulation: TransposeBlocked's
// Block x Block tiles, or TransposeStrips' strips of Strip rows when
// Block is zero (a strip of every row walks the source one column at a
// time). Machine models declare the one they time, and core.Prove
// proves it.
type Transposer struct {
	Block, Strip int
}

// Transpose computes dst = src^T in t's access order.
func (t Transposer) Transpose(dst, src *testsig.Matrix) error {
	if t.Block == 0 {
		return TransposeStrips(dst, src, t.Strip)
	}
	return TransposeBlocked(dst, src, t.Block)
}

// VerifySynthetic proves one transpose formulation on pooled synthetic
// operands: it fills a deterministic rows x cols source, runs transpose
// into a cols x rows destination, and compares the checksum of its whole
// output against the reference checksum of src^T. core.Prove calls it
// once per shape and declared Transposer; the matrices come from (and
// return to) the testsig pool, so a sweep of many shapes allocates few.
//
// The fill is deterministic, so the reference checksum is a function of
// the shape alone: it is computed once per shape per process and
// memoized. The formulation under test still runs on every call.
func VerifySynthetic(rows, cols int, transpose func(dst, src *testsig.Matrix) error) error {
	src := testsig.GetMatrix(rows, cols)
	defer src.Release()
	src.Fill(syntheticSeed)
	// The reference comes first, from the untouched source, so a
	// formulation that writes its input cannot poison the memo.
	want, err := referenceChecksum(src)
	if err != nil {
		return err
	}
	dst := testsig.GetMatrix(cols, rows)
	defer dst.Release()
	clear(dst.Data)
	if err := transpose(dst, src); err != nil {
		return err
	}
	if Checksum(dst) != want {
		return fmt.Errorf("cornerturn: output mismatch against reference")
	}
	return nil
}

// syntheticSeed fills VerifySynthetic's source matrices.
const syntheticSeed = 1

// referenceBudget bounds the bytes the reference memo retains: about a
// thousand shapes at referenceEntryBytes each.
const referenceBudget = 64 << 10

// referenceEntryBytes is what one memoized checksum is charged beside
// its key: the 8-byte value and its share of the table.
const referenceEntryBytes = 56

// references memoizes the checksum of the synthetic source's transpose,
// keyed by shape.
var references = cache.NewSizedMemo("cornerturn_reference", referenceBudget, func(uint64) int { return referenceEntryBytes })

// referenceChecksum returns the checksum of src^T, where src must hold
// the synthetic fill of its shape. Concurrent misses on one shape
// compute it once.
func referenceChecksum(src *testsig.Matrix) (uint64, error) {
	key := strconv.Itoa(src.Rows) + "x" + strconv.Itoa(src.Cols)
	return references.Do(key, func() (uint64, error) { return transposedChecksum(src), nil })
}

// transposedChecksum returns Checksum(src^T) without building src^T.
// Element (r, c) of src is element (c, r) of its transpose, at position
// c*src.Rows + r; Checksum's terms do not depend on the order they are
// added in, so one row-order pass over src adds each at that position.
// It shares no code with any transposer, so a wrong index in one of
// them cannot reappear in the reference meant to catch it.
func transposedChecksum(src *testsig.Matrix) uint64 {
	h := shapeTerm(src.Cols, src.Rows)
	for r := 0; r < src.Rows; r++ {
		pos := r
		for _, v := range src.Data[r*src.Cols : (r+1)*src.Cols] {
			h += elementTerm(pos, v)
			pos += src.Rows
		}
	}
	return h
}

// Checksum returns a position-keyed digest of the matrix: the 64-bit
// sum of one term for the shape and one for each element, mixed from the
// element's row-major position and its value. A changed, moved or
// swapped element changes its terms, and with them the sum, barring a
// 64-bit coincidence; the sum is the same in whatever order its terms
// are added, which lets the reference add them in the order it reads
// its source. Machine models use it to prove their functional output
// matches the reference without holding both copies.
func Checksum(m *testsig.Matrix) uint64 {
	h := shapeTerm(m.Rows, m.Cols)
	for pos, v := range m.Data {
		h += elementTerm(pos, v)
	}
	return h
}

// shapeTerm is Checksum's term for a rows x cols shape.
func shapeTerm(rows, cols int) uint64 {
	return fold(uint64(rows)^0x8ebc6af09c88c6e3, uint64(cols)^0x589965cc75374cc3)
}

// elementTerm is Checksum's term for value v at row-major position pos.
func elementTerm(pos int, v int32) uint64 {
	return fold(uint64(pos)^0xe7037ed1a0b428db, uint64(uint32(v))^0xa0761d6478bd642f)
}

// fold is wyhash's mixing step: the high and low words of the 128-bit
// product a*b, xored. The constants the terms xor in keep both factors
// far from zero.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
