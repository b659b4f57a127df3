package vec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// SparseRows is a row-compressed sparse matrix: row i holds the entries
// (Idx[k], W[k]) for Start[i] ≤ k < Start[i+1], columns ascending within a
// row. It is how the gradient block G of a score block travels from the loss
// that produces it to the two accumulating products that consume it (G·B and,
// transposed, Gᵀ·A): under the ranking loss most of G is zero, so the rows'
// non-zeros are the representation rather than something each consumer
// rediscovers. The buffers are reused across Reset calls.
type SparseRows struct {
	Start []int32 // len Rows()+1, Start[0] = 0, non-decreasing
	Idx   []int32
	W     []float32
}

// Rows returns the number of closed rows.
func (s *SparseRows) Rows() int { return len(s.Start) - 1 }

// Reset empties s and reserves room for rows rows of at most cols entries, so
// that building it allocates only when a block is larger than any before.
func (s *SparseRows) Reset(rows, cols int) {
	s.reserve(rows, rows*cols)
	s.Start = append(s.Start[:0], 0)
	s.Idx, s.W = s.Idx[:0], s.W[:0]
}

// reserve makes room for rows rows over nnz entries, keeping buffers that
// are already large enough (their contents are about to be overwritten).
func (s *SparseRows) reserve(rows, nnz int) {
	if cap(s.Start) < rows+1 {
		s.Start = make([]int32, 0, rows+1)
	}
	if cap(s.Idx) < nnz || cap(s.W) < nnz {
		s.Idx, s.W = make([]int32, 0, nnz), make([]float32, 0, nnz)
	}
}

// Append adds entry (j, w) to the row being built; columns must ascend.
func (s *SparseRows) Append(j int32, w float32) {
	s.Idx = append(s.Idx, j)
	s.W = append(s.W, w)
}

// EndRow closes the row being built.
func (s *SparseRows) EndRow() {
	s.Start = append(s.Start, int32(len(s.Idx)))
}

// AppendHingeRow builds and closes one row of a margin-ranking gradient block
// in a single pass over the row's scores: it holds, in ascending j and each
// with weight w, every column j whose candidate is not the positive's own
// endpoint (ids[j] != id) and whose hinge argument t+scores[j] is positive.
// It returns the sum of those arguments (to float32 accuracy: it is a loss
// value to report, no gradient depends on it) and the number of columns with
// ids[j] == id. A NaN argument is not positive. On the assembly path the
// comparisons run 8 lanes at a time and produce a bitmask whose set bits are
// then walked, so the cost per entry does not depend on a branch predictor
// guessing which negatives violate the margin.
//
//pbg:hotpath
func (s *SparseRows) AppendHingeRow(scores []float32, ids []int32, t float32, id int32, w float32) (sum float64, masked int) {
	if len(scores) != len(ids) {
		panic("vec: AppendHingeRow length mismatch")
	}
	n0 := len(s.Idx)
	if cap(s.Idx)-n0 < len(scores) || cap(s.W)-n0 < len(scores) {
		panic("vec: AppendHingeRow beyond the capacity Reset reserved")
	}
	n, sum, masked := hingeRow(s.Idx[n0:n0+len(scores)], scores, ids, t, id)
	s.Idx = s.Idx[:n0+n]
	s.W = s.W[:n0+n]
	for ws, k := s.W[n0:], 0; k < len(ws); k++ {
		ws[k] = w
	}
	s.Start = append(s.Start, int32(n0+n))
	return sum, masked
}

// hingeRow writes to idx the ascending positions selected by AppendHingeRow's
// rule and returns their count, the sum and the masked count.
//
//pbg:hotpath
func hingeRow(idx []int32, scores []float32, ids []int32, t float32, id int32) (n int, sum float64, masked int) {
	if useAVX2 {
		return hingeRowAVX2(idx, scores, ids, t, id)
	}
	return hingeRowGeneric(idx, scores, ids, t, id)
}

//pbg:hotpath
func hingeRowGeneric(idx []int32, scores []float32, ids []int32, t float32, id int32) (n int, sum float64, masked int) {
	for j, sc := range scores {
		if ids[j] == id {
			masked++
			continue
		}
		if v := t + sc; v > 0 {
			sum += float64(v)
			idx[n] = int32(j)
			n++
		}
	}
	return n, sum, masked
}

// maskBlock is how many entries one call of a mask leaf covers; longer rows
// take several calls. The hinge leaf sums the selected arguments in 16 float32
// lanes before widening, so the block also bounds what a lane adds up in
// single precision: 8 terms, i.e. the sum is within 8·2⁻²⁴ of the float64 one.
const maskBlock = 128

// maskBits is one block's mask: a bit per entry, as the leaves leave it.
type maskBits [maskBlock / 8]byte

// walk writes base+j to idx[n:] for every set bit j < cnt of the mask, 64
// bits at a time in ascending order, and returns the new n.
//
//pbg:hotpath
func (mask *maskBits) walk(idx []int32, n, base, cnt int) int {
	for at := 0; at < cnt; at += 64 {
		m := binary.LittleEndian.Uint64(mask[at/8:])
		if cnt-at < 64 {
			m &= 1<<(cnt-at) - 1 // bytes the leaf did not write this call
		}
		for ; m != 0; m &= m - 1 {
			idx[n] = int32(base + at + bits.TrailingZeros64(m))
			n++
		}
	}
	return n
}

// hingeRowAVX2 is hingeRowGeneric over the hingeMaskAVX2 leaf: the leaf
// compares 8 entries per step and leaves one bit per entry, and the set bits
// are walked here.
//
//pbg:hotpath
func hingeRowAVX2(idx []int32, scores []float32, ids []int32, t float32, id int32) (n int, sum float64, masked int) {
	var mask maskBits
	for base := 0; base < len(scores); base += maskBlock {
		cnt := min(len(scores)-base, maskBlock)
		s, eq := hingeMaskAVX2(&mask[0], &scores[base], &ids[base], cnt, t, id)
		sum += s
		masked += eq
		n = mask.walk(idx, n, base, cnt)
	}
	return n, sum, masked
}

// SelectGE writes to idx, ascending, the positions j with !(x[j] < t) and
// returns how many there are; idx must have room for len(x). A NaN — in x or
// as t — is not below anything, so it is selected: these are exactly the
// entries a "drop what is strictly below the threshold" test keeps, which is
// what lets serving filter a whole score row against a top-K heap's root
// before touching the heap. On the assembly path the comparison runs 8 lanes
// at a time into a bitmask whose set bits are then walked (AppendHingeRow's
// walk), so a row that is almost all rejects costs almost nothing per entry.
// Both paths select the same positions on every input.
//
//pbg:hotpath
func SelectGE(idx []int32, x []float32, t float32) int {
	if len(idx) < len(x) {
		panic("vec: SelectGE needs room for every position")
	}
	if useAVX2 {
		return selectGEAVX2(idx, x, t)
	}
	return selectGEGeneric(idx, x, t)
}

//pbg:hotpath
func selectGEGeneric(idx []int32, x []float32, t float32) int {
	n := 0
	for j, v := range x {
		if !(v < t) {
			idx[n] = int32(j)
			n++
		}
	}
	return n
}

//pbg:hotpath
func selectGEAVX2(idx []int32, x []float32, t float32) int {
	var mask maskBits
	n := 0
	for base := 0; base < len(x); base += maskBlock {
		cnt := min(len(x)-base, maskBlock)
		selectGEMaskAVX2(&mask[0], &x[base], cnt, t)
		n = mask.walk(idx, n, base, cnt)
	}
	return n
}

// TransposeInto writes sᵀ, taken as a Rows()×cols matrix, into t: a counting
// sort by column, so each of t's rows (s's columns) lists its entries in
// ascending row order of s — the order AddRowsSparse adds them in.
//
//pbg:hotpath
func (s *SparseRows) TransposeInto(t *SparseRows, cols int) {
	nnz := len(s.Idx)
	t.reserve(cols, nnz)
	t.Start, t.Idx, t.W = t.Start[:cols+1], t.Idx[:nnz], t.W[:nnz]
	start := t.Start
	for j := range start {
		start[j] = 0
	}
	// start[j+1] counts column j, then becomes where column j's next entry
	// goes; once every entry is placed that is where column j+1 begins.
	for _, j := range s.Idx {
		start[j+1]++
	}
	var at int32
	for j := 1; j <= cols; j++ {
		at, start[j] = at+start[j], at
	}
	for i := 0; i < s.Rows(); i++ {
		for k := s.Start[i]; k < s.Start[i+1]; k++ {
			j := s.Idx[k] + 1
			p := start[j]
			t.Idx[p], t.W[p] = int32(i), s.W[k]
			start[j] = p + 1
		}
	}
}

// AddRowsSparse accumulates dst += G·src for a sparse G: row i of dst
// receives Σ_k W[k]·src[Idx[k]] over row i's entries, in ascending k. It is
// the one kernel under both backward products of a score block — called with
// G it is G·B, with Gᵀ (TransposeInto) it is Gᵀ·A — and on either path it is
// bitwise the chain of Axpy calls it abbreviates, ±0 weights skipped.
//
//pbg:hotpath
func AddRowsSparse(dst Matrix, g *SparseRows, src Matrix) {
	addRowsSparse(dst, g, src, useAVX2)
}

//pbg:hotpath
func addRowsSparse(dst Matrix, g *SparseRows, src Matrix, asm bool) {
	checkSparse(dst, g, src)
	for i := 0; i < dst.Rows; i++ {
		lo, hi := g.Start[i], g.Start[i+1]
		if lo < hi {
			addRow(dst.Row(i), src, g.Idx[lo:hi], g.W[lo:hi], asm)
		}
	}
}

// checkSparse is AddRowsSparse's bounds gate. The assembly leaf addresses
// source rows by pointer arithmetic from Idx, so everything it will
// dereference is validated here, before any row runs.
func checkSparse(dst Matrix, g *SparseRows, src Matrix) {
	checkData(dst, src, Matrix{})
	if dst.Cols != src.Cols || len(g.Start) != dst.Rows+1 {
		panic(fmt.Sprintf("vec: AddRowsSparse shape mismatch dst=%dx%d src=%dx%d rows=%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols, g.Rows()))
	}
	if !validSparse(g, src.Rows) {
		panic("vec: AddRowsSparse over a malformed SparseRows")
	}
}

// validSparse reports whether g's row bounds are monotone over exactly its
// entries and every column index names one of cols columns.
func validSparse(g *SparseRows, cols int) bool {
	if len(g.Idx) != len(g.W) || g.Start[0] != 0 || int(g.Start[len(g.Start)-1]) != len(g.Idx) {
		return false
	}
	for i := 1; i < len(g.Start); i++ {
		if g.Start[i] < g.Start[i-1] {
			return false
		}
	}
	return indicesBelow(g.Idx, cols)
}

// indicesBelow reports whether every index of idx names one of n rows. As
// unsigned numbers a negative index is a huge one, so one maximum settles
// both ends of the range.
func indicesBelow(idx []int32, n int) bool {
	return len(idx) == 0 || int64(maxUint32(idx)) < int64(n)
}

// maxUint32 returns the largest element of x read as unsigned, 0 for none.
func maxUint32(x []int32) uint32 {
	if useAVX2 {
		return maxUint32AVX2(unsafe.SliceData(x), len(x))
	}
	var m uint32
	for _, v := range x {
		m = max(m, uint32(v))
	}
	return m
}

// addRow accumulates dst += Σ_k w[k]·src[idx[k]], ascending k, ±0 weights
// skipped: the assembly leaf when asm is set, else the Axpy chain it stands
// for. The callers have validated idx against src.
//
//pbg:hotpath
func addRow(dst []float32, src Matrix, idx []int32, w []float32, asm bool) {
	if asm {
		addRowSparseAVX2(unsafe.SliceData(dst), len(dst), unsafe.SliceData(src.Data), unsafe.SliceData(idx), unsafe.SliceData(w), len(idx))
		return
	}
	for k, j := range idx {
		if w[k] != 0 {
			axpyGeneric(w[k], src.Row(int(j)), dst)
		}
	}
}

// addOuterDense is AddOuterAtB on the sparse kernel: a row of G is already a
// weight list, over the identity index list, and the kernel's own exact zero
// skip is what skips G's zeros. Source rows go in runs of len(idx) only so
// that the identity list has a fixed size.
//
//pbg:hotpath
func addOuterDense(a, g, b Matrix, asm bool) {
	var idx [128]int32
	for i := range idx {
		idx[i] = int32(i)
	}
	d := b.Cols
	for q0 := 0; q0 < b.Rows; q0 += len(idx) {
		n := min(len(idx), b.Rows-q0)
		run := Matrix{Rows: n, Cols: d, Data: b.Data[q0*d : (q0+n)*d]}
		for p := 0; p < a.Rows; p++ {
			addRow(a.Row(p), run, idx[:n], g.Row(p)[q0:q0+n], asm)
		}
	}
}
