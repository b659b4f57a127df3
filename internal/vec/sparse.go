package vec

import (
	"fmt"
	"unsafe"
)

// SparseRows is a row-compressed sparse matrix: row i holds the entries
// (Idx[k], W[k]) for Start[i] ≤ k < Start[i+1], columns ascending within a
// row. It is how the gradient block G of a score block travels from the loss
// that produces it to the two accumulating products that consume it, G·B
// (AddRowsSparse) and Gᵀ·A (AddRowsSparseT, which reads G's rows as they
// are: no transpose is built): under the ranking loss most of G is zero, so the rows'
// non-zeros are the representation rather than something each consumer
// rediscovers. The buffers are reused across Reset calls.
type SparseRows struct {
	Start []int32 // len Rows()+1, Start[0] = 0, non-decreasing
	Idx   []int32
	W     []float32
}

// Rows returns the number of closed rows.
func (s *SparseRows) Rows() int { return len(s.Start) - 1 }

// Reset empties s and reserves room for rows rows of at most cols entries,
// plus the PackSlack entries the assembly's last group of AppendHingeRow
// stores past a row, so that building it allocates only when a block is
// larger than any before.
func (s *SparseRows) Reset(rows, cols int) {
	s.reserve(rows, rows*cols+PackSlack)
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

// PackSlack is how many entries past the last one it keeps a selection pass
// may overwrite: the assembly stores the positions one group of 8 compares
// selects as 8 entries, whatever the count, so the last group of a row
// writes up to 7 entries past its end. SelectGE's idx and a row appended by
// AppendHingeRow need that much room beyond their len(x).
const PackSlack = 8

// AppendHingeRow builds and closes one row of a margin-ranking gradient block
// in a single pass over the row's scores: it holds, in ascending j and each
// with weight w, every column j whose candidate is not the positive's own
// endpoint (ids[j] != id) and whose hinge argument t+scores[j] is positive.
// It returns the sum of those arguments (to float32 accuracy: it is a loss
// value to report, no gradient depends on it) and the number of columns with
// ids[j] == id. A NaN argument is not positive. The row needs room for
// len(scores)+PackSlack entries past the ones already held, which Reset
// reserves. On the assembly path the comparisons run 8 lanes at a time and
// each group's selected columns and weights are stored left-packed, so the
// cost per entry does not depend on a branch predictor guessing which
// negatives violate the margin.
//
//pbg:hotpath
func (s *SparseRows) AppendHingeRow(scores []float32, ids []int32, t float32, id int32, w float32) (sum float64, masked int) {
	if len(scores) != len(ids) {
		panic("vec: AppendHingeRow length mismatch")
	}
	n0, room := len(s.Idx), len(scores)+PackSlack
	if cap(s.Idx)-n0 < room || cap(s.W)-n0 < room {
		panic("vec: AppendHingeRow beyond the capacity Reset reserved")
	}
	n, sum, masked := hingeRow(s.Idx[n0:n0+room], s.W[n0:n0+room], scores, ids, t, id, w)
	s.Idx = s.Idx[:n0+n]
	s.W = s.W[:n0+n]
	s.Start = append(s.Start, int32(n0+n))
	return sum, masked
}

// hingeRow writes to idx, and w beside each into ws, the ascending positions
// selected by AppendHingeRow's rule and returns their count, the sum and the
// masked count. idx and ws have PackSlack entries past len(scores).
//
//pbg:hotpath
func hingeRow(idx []int32, ws []float32, scores []float32, ids []int32, t float32, id int32, w float32) (n int, sum float64, masked int) {
	if useAVX2 {
		return hingeRowAVX2(idx, ws, scores, ids, t, id, w)
	}
	return hingeRowGeneric(idx, ws, scores, ids, t, id, w)
}

//pbg:hotpath
func hingeRowGeneric(idx []int32, ws []float32, scores []float32, ids []int32, t float32, id int32, w float32) (n int, sum float64, masked int) {
	for j, sc := range scores {
		if ids[j] == id {
			masked++
			continue
		}
		if v := t + sc; v > 0 {
			sum += float64(v)
			idx[n], ws[n] = int32(j), w
			n++
		}
	}
	return n, sum, masked
}

// maskBlock is how many entries one call of the hinge leaf covers; longer
// rows take several calls. The leaf sums the selected arguments in 16 float32
// lanes before widening, so the block bounds what a lane adds up in single
// precision: 8 terms, i.e. the sum is within 8·2⁻²⁴ of the float64 one.
const maskBlock = 128

// hingeRowAVX2 is hingeRowGeneric over the hingePackAVX2 leaf, one call per
// maskBlock entries: the leaf compares 8 entries per step and stores each
// step's selected columns, and the weight beside each, straight into the
// row. checkPacked has held the lengths the leaf addresses.
//
//pbg:hotpath
func hingeRowAVX2(idx []int32, ws []float32, scores []float32, ids []int32, t float32, id int32, w float32) (n int, sum float64, masked int) {
	checkPacked(idx, len(scores))
	checkPacked(ws, len(scores))
	for base := 0; base < len(scores); base += maskBlock {
		cnt := min(len(scores)-base, maskBlock)
		s, eq, k := hingePackAVX2(&idx[n], &ws[n], &scores[base], &ids[base], cnt, t, id, w, int32(base))
		sum += s
		masked += eq
		n += k
	}
	return n, sum, masked
}

// checkPacked panics unless list has room for n entries and the PackSlack
// a pack leaf may overwrite past them.
func checkPacked[T int32 | float32](list []T, n int) {
	if len(list) < n+PackSlack {
		panic("vec: a selection pass needs PackSlack entries of room past its input")
	}
}

// SelectGE writes to idx, ascending, the positions j with !(x[j] < t) and
// returns how many there are; idx must have room for len(x)+PackSlack
// entries, the slack being what the assembly's last group may overwrite. A
// NaN — in x or as t — is not below anything, so it is selected: these are
// exactly the entries a "drop what is strictly below the threshold" test
// keeps, which is what lets serving filter a whole score row against a top-K
// heap's root before touching the heap. On the assembly path the comparison
// runs 8 lanes at a time and each group's selected positions are stored
// left-packed (a table lookup and a popcount, no branch), so a row that is
// almost all rejects costs almost nothing per entry. Both paths select the
// same positions on every input.
//
//pbg:hotpath
func SelectGE(idx []int32, x []float32, t float32) int {
	checkPacked(idx, len(x))
	if useAVX2 {
		return selectGEPackAVX2(unsafe.SliceData(idx), unsafe.SliceData(x), len(x), t)
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

// AddRowsSparse accumulates dst += G·src for a sparse G: row i of dst
// receives Σ_k W[k]·src[Idx[k]] over row i's entries, in ascending k. It is
// a score block's G·B, row-stationary: each destination row is held while
// its list is walked. On either path it is bitwise the chain of Axpy calls it
// abbreviates, ±0 weights skipped.
//
//pbg:hotpath
func AddRowsSparse(dst Matrix, g *SparseRows, src Matrix) {
	addRowsSparse(dst, g, src, useAVX2)
}

//pbg:hotpath
func addRowsSparse(dst Matrix, g *SparseRows, src Matrix, asm bool) {
	checkSparse("AddRowsSparse", dst, g, src, dst.Rows, src.Rows)
	for i := 0; i < dst.Rows; i++ {
		lo, hi := g.Start[i], g.Start[i+1]
		if lo < hi {
			addRow(dst.Row(i), src, g.Idx[lo:hi], g.W[lo:hi], asm)
		}
	}
}

// AddRowsSparseT accumulates dst += Gᵀ·src for a sparse G with src.Rows rows
// whose columns name rows of dst: it scatters each row of G, so for i
// ascending and each entry (j, w) of row i, dst[j] += w·src[i]. It is a score
// block's Gᵀ·A, column-stationary: each source row is held while its list is
// walked. Destination row j receives its entries in ascending i, the order a
// row of Gᵀ lists them in, so on either path it is bitwise the chain of Axpy
// calls AddRowsSparse over the transpose would make, ±0 weights skipped; no
// transpose is built. dst must not overlap src.
//
//pbg:hotpath
func AddRowsSparseT(dst Matrix, g *SparseRows, src Matrix) {
	addRowsSparseT(dst, g, src, useAVX2)
}

//pbg:hotpath
func addRowsSparseT(dst Matrix, g *SparseRows, src Matrix, asm bool) {
	checkSparse("AddRowsSparseT", dst, g, src, src.Rows, dst.Rows)
	for i := 0; i < src.Rows; i++ {
		lo, hi := g.Start[i], g.Start[i+1]
		if lo < hi {
			scatterRow(dst, src.Row(i), g.Idx[lo:hi], g.W[lo:hi], asm)
		}
	}
}

// checkSparse is the bounds gate of the two sparse products: g must have
// rows rows whose indices name rows of a matrix of cols rows — src's for
// AddRowsSparse, dst's for AddRowsSparseT. Their assembly leaves address
// those rows by pointer arithmetic from Idx, so everything a leaf will
// dereference is validated here, before any row runs.
func checkSparse(op string, dst Matrix, g *SparseRows, src Matrix, rows, cols int) {
	checkData(dst, src, Matrix{})
	if dst.Cols != src.Cols || len(g.Start) != rows+1 {
		panic(fmt.Sprintf("vec: %s shape mismatch dst=%dx%d src=%dx%d rows=%d",
			op, dst.Rows, dst.Cols, src.Rows, src.Cols, g.Rows()))
	}
	if !validSparse(g, cols) {
		panic("vec: " + op + " over a malformed SparseRows")
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
	return indicesIn(g.Idx, 0, cols)
}

// indicesIn reports whether every index of idx lies in [first, first+n):
// one pass for the minimum and maximum settles both ends of the range.
func indicesIn(idx []int32, first int32, n int) bool {
	if len(idx) == 0 {
		return true
	}
	lo, hi := minMaxInt32(idx)
	return lo >= first && int64(hi)-int64(first) < int64(n)
}

// minMaxInt32 returns the smallest and the largest element of x, which is
// not empty.
func minMaxInt32(x []int32) (lo, hi int32) {
	if useAVX2 {
		return minMaxInt32AVX2(unsafe.SliceData(x), len(x))
	}
	lo, hi = x[0], x[0]
	for _, v := range x {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
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

// scatterRow accumulates dst[idx[k]] += w[k]·src for k ascending, ±0 weights
// skipped: the assembly leaf when asm is set, else the Axpy calls it stands
// for. The callers have validated idx against dst.
//
//pbg:hotpath
func scatterRow(dst Matrix, src []float32, idx []int32, w []float32, asm bool) {
	if asm {
		scatterRowAVX2(unsafe.SliceData(dst.Data), len(src), unsafe.SliceData(src), unsafe.SliceData(idx), unsafe.SliceData(w), len(idx))
		return
	}
	for k, j := range idx {
		if w[k] != 0 {
			axpyGeneric(w[k], src, dst.Row(int(j)))
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
