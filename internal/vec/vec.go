// Package vec provides the dense float32 vector and matrix kernels that the
// rest of the system is built on. PyTorch-BigGraph relies on PyTorch (and
// through it a tuned BLAS) for these; this package is the hand-written
// substitute, on two paths: AVX2+FMA assembly leaves under Dot, Axpy, the
// score GEMM (over rows next to each other or named by a list), the sparse
// backward product, the complex products, the ranking loss's row pass and
// serving's threshold filter on amd64 processors that have them
// (kernel_amd64.s), and portable Go kernels everywhere else (the *Generic
// functions), which are also the reference the assembly is tested against.
// kernel.go states which path runs and what the two may differ by. Everything operates on
// plain []float32 slices so embedding tables can be memory-mapped or sliced
// out of large flat buffers without copies.
//
// All kernels are single-threaded; parallelism happens above this layer
// (HOGWILD workers each call into vec independently).
package vec

import (
	"fmt"
	"math"
	"unsafe"
)

// Dot returns the inner product <a, b>. The slices must have equal length.
//
//pbg:hotpath
func Dot(a, b []float32) float32 {
	checkPair("Dot", a, b)
	if useAVX2 {
		return dotAVX2(unsafe.SliceData(a), unsafe.SliceData(b), len(a))
	}
	return dotGeneric(a, b)
}

//pbg:hotpath
func dotGeneric(a, b []float32) float32 {
	// Four-way unrolled accumulation: measurably faster than the naive loop
	// and keeps rounding error lower by splitting the accumulator.
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// SquaredDistance returns ||a-b||².
//
//pbg:hotpath
func SquaredDistance(a, b []float32) float32 {
	checkPair("SquaredDistance", a, b)
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cosine returns the cosine similarity between a and b. Zero vectors have
// cosine similarity 0 with everything, which keeps training numerically sane
// when an embedding row is still at its zero initialisation.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Axpy computes y += alpha * x in place.
//
//pbg:hotpath
func Axpy(alpha float32, x, y []float32) {
	checkPair("Axpy", x, y)
	if alpha == 0 {
		return
	}
	if useAVX2 {
		axpyAVX2(alpha, unsafe.SliceData(x), unsafe.SliceData(y), len(x))
		return
	}
	axpyGeneric(alpha, x, y)
}

//pbg:hotpath
func axpyGeneric(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// AdagradRows applies row-wise Adagrad (§3.1: one accumulator per embedding
// row) to the rows of a table that a gradient block lists: for k ascending,
// with r = ids[k]−first and gk = g.Row(k),
//
//	ss := Dot(gk, gk); if ss == 0 { skip }
//	acc[r] += ss / d
//	Axpy(−lr / (√acc[r] + eps), gk, row r of embs)
//
// over a table of len(acc) rows of d = g.Cols floats, row major in embs. A
// row listed twice takes both steps, in list order. On the assembly path one
// leaf runs the whole block, bitwise this chain of the same path's Dot and
// Axpy; on the portable path it is the chain. Every id is checked against
// the table before any row is written. Callers on several goroutines may
// update the same rows with no lock: HOGWILD's benign race.
//
//pbg:hotpath
func AdagradRows(embs, acc []float32, ids []int32, first int32, g Matrix, lr, eps float32) {
	checkAdagradRows(embs, acc, ids, first, g)
	if useAVX2 {
		adagradRowsAVX2(unsafe.SliceData(embs), unsafe.SliceData(acc), unsafe.SliceData(ids), int(first), unsafe.SliceData(g.Data), len(ids), g.Cols, lr, eps)
		return
	}
	adagradRowsGeneric(embs, acc, ids, first, g, lr, eps)
}

// checkAdagradRows is AdagradRows' bounds gate: the block has a row per id,
// the table a row of g.Cols floats per accumulator, and every id names a
// row of it. The leaf addresses rows by pointer arithmetic from the ids, so
// this is what keeps it inside the table.
func checkAdagradRows(embs, acc []float32, ids []int32, first int32, g Matrix) {
	checkData(g, Matrix{}, Matrix{})
	if g.Rows != len(ids) || len(embs) != len(acc)*g.Cols {
		panic(fmt.Sprintf("vec: AdagradRows shape mismatch: %d ids, grad %dx%d, table %d floats over %d rows",
			len(ids), g.Rows, g.Cols, len(embs), len(acc)))
	}
	if !indicesIn(ids, first, len(acc)) {
		panic("vec: AdagradRows id outside the table")
	}
}

//pbg:hotpath
func adagradRowsGeneric(embs, acc []float32, ids []int32, first int32, g Matrix, lr, eps float32) {
	d := g.Cols
	for k, id := range ids {
		r, gk := int(id-first), g.Row(k)
		ss := dotGeneric(gk, gk)
		if ss == 0 {
			continue
		}
		acc[r] += ss / float32(d)
		if step := lr / (float32(math.Sqrt(float64(acc[r]))) + eps); step != 0 {
			axpyGeneric(-step, gk, embs[r*d:(r+1)*d])
		}
	}
}

// Prefetch asks the processor to bring every cache line of x towards its L1
// cache and returns without waiting: a hint for rows the caller will read a
// whole step of work later, so the loads land before they are needed. It
// changes no memory and faults on nothing. On the portable path it does
// nothing.
//
//pbg:hotpath
func Prefetch(x []float32) {
	if useAVX2 {
		prefetchSpanAVX2(unsafe.SliceData(x), len(x))
	}
}

// Scale multiplies x by alpha in place.
//
//pbg:hotpath
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b elementwise.
//
//pbg:hotpath
func Add(dst, a, b []float32) {
	checkTriple("Add", dst, a, b)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b elementwise.
//
//pbg:hotpath
func Sub(dst, a, b []float32) {
	checkTriple("Sub", dst, a, b)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Mul computes dst = a ⊙ b (Hadamard product).
//
//pbg:hotpath
func Mul(dst, a, b []float32) {
	checkTriple("Mul", dst, a, b)
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// MulAdd computes dst += a ⊙ b.
//
//pbg:hotpath
func MulAdd(dst, a, b []float32) {
	checkTriple("MulAdd", dst, a, b)
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

func checkTriple(op string, dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("vec: %s length mismatch %d/%d/%d", op, len(dst), len(a), len(b)))
	}
}

// checkPair is the two-operand shape check. It lives outside the kernels so
// the //pbg:hotpath bodies stay free of fmt formatting (the panic message
// is only built on the failure path, but the lint contract is lexical).
func checkPair(op string, a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: %s length mismatch %d != %d", op, len(a), len(b)))
	}
}

// checkMulABt is the shape and bounds gate of MulABt and MulABtRows. The
// assembly leaf reads idx[j] and row idx[j] of b by pointer arithmetic, so the
// list is range-checked here, once per call, before any row is loaded.
func checkMulABt(c, a, b Matrix, idx []int32) {
	checkData(c, a, b)
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("vec: MulABt inner dim mismatch %d != %d", a.Cols, b.Cols))
	}
	m := b.Rows
	if idx != nil {
		m = len(idx)
	}
	if c.Rows != a.Rows || c.Cols != m {
		panic(fmt.Sprintf("vec: MulABt output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, m))
	}
	if !indicesIn(idx, 0, b.Rows) {
		panic("vec: MulABtRows index out of range")
	}
}

func checkOuter(a, g, b Matrix) {
	checkData(a, g, b)
	if g.Rows != a.Rows || g.Cols != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("vec: AddOuterAtB shape mismatch g=%dx%d a=%dx%d b=%dx%d",
			g.Rows, g.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// checkData is the bounds gate of the three GEMMs: the assembly leaves address
// rows by pointer arithmetic from Rows and Cols, so a hand-built Matrix whose
// Data is shorter than its shape must be refused here, where the portable
// kernels would have hit a slice bounds panic.
func checkData(x, y, z Matrix) {
	for _, m := range [...]Matrix{x, y, z} {
		if m.Rows < 0 || m.Cols < 0 || len(m.Data) != m.Rows*m.Cols {
			panic(fmt.Sprintf("vec: %dx%d matrix over %d elements", m.Rows, m.Cols, len(m.Data)))
		}
	}
}

func checkMatVec(op string, a Matrix, nx, ny, wantX, wantY int) {
	if nx != wantX || ny != wantY {
		panic(fmt.Sprintf("vec: %s shapes a=%dx%d x=%d y=%d", op, a.Rows, a.Cols, nx, ny))
	}
}

// Copy copies src into dst (lengths must match).
//
//pbg:hotpath
func Copy(dst, src []float32) {
	checkPair("Copy", dst, src)
	copy(dst, src)
}

// Zero clears x.
//
//pbg:hotpath
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Normalize scales x to unit norm in place and returns the original norm.
// A zero vector is left unchanged.
func Normalize(x []float32) float32 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// SumSquares returns Σ xᵢ².
func SumSquares(x []float32) float32 {
	return Dot(x, x)
}

// Matrix is a dense row-major float32 matrix view over a flat slice.
// Rows*Cols must equal len(Data). It is a view type: copying a Matrix copies
// the header, not the data.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// MatrixFrom wraps an existing flat slice as a Rows×Cols matrix.
func MatrixFrom(data []float32, rows, cols int) Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("vec: MatrixFrom %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns row i as a slice view (no copy).
func (m Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulABt computes C = A · Bᵀ where A is (n×d), B is (m×d) and C is (n×m).
// This is the batched-negative-scoring kernel from Figure 3 of the paper: the
// scores of n positives against m candidate negatives are a single GEMM.
//
// Both paths are register-blocked 4×2: each inner pass streams the shared
// dimension once for 4 rows of A against 2 rows of B, keeping 8 accumulators
// live in registers — 8 FMAs per 6 loads versus 1 FMA per 2 loads for the
// row-times-row formulation. On the assembly path one leaf call takes a strip
// of 4 rows of A across every column pair of C, and every C[i][j] is bitwise
// Dot(a_i, b_j) wherever the strip and the pair put it (see kernel.go).
//
//pbg:hotpath
func MulABt(c, a, b Matrix) {
	MulABtRows(c, a, b, nil)
}

// MulABtRows computes C[i][j] = Dot(a_i, b[idx[j]]): MulABt against the rows
// idx of B, read where they lie instead of being gathered next to each other
// first. A is (n×d), B is (m×d), C is (n×len(idx)); a row may be listed more
// than once. A nil idx lists every row of B in order, which is MulABt. It is
// the same strip walk on the same leaf as MulABt — on the assembly path
// bitwise MulABt over a gathered copy of the rows, and bitwise Dot — so
// serving scores a probed list straight out of a read-only mapping. Listed
// rows lie where no hardware prefetcher looks, so the assembly walk's first
// strip asks for the rows listed 8 and 9 columns ahead of the pair it scores
// (a hint: it changes no result; the first 8 listed rows, and so a list of 8
// or fewer, go unrequested). An index outside B panics before any row is
// read.
//
//pbg:hotpath
func MulABtRows(c, a, b Matrix, idx []int32) {
	checkMulABt(c, a, b, idx)
	if useAVX2 {
		mulABtAVX2(c, a, b, idx, 0)
		return
	}
	mulABtGeneric(c, a, b, idx, 0)
}

// MulABtReusing computes C = A·Bᵀ, bitwise what MulABt(c, a, b) writes on
// this kernel path, when its first k = t.Rows columns were already computed
// the other way round: T = MulABt(t, B[:k], X) over rows X whose first n are
// A's, so T[j][i] is a_i·b_j. Those columns are read from T, and only the
// other m−k are multiplied, stored straight into C. It is how one side of a
// training chunk takes the block it shares with the other side (Figure 3's
// positives against their own chunk's endpoints) instead of multiplying it
// again. An empty T is MulABt.
//
// On the assembly path every cell is Dot of its two rows wherever it sits
// (kernel.go, (ii)) and Dot is symmetric in its operands — the FMA of a·b
// is the FMA of b·a — so the first k columns are T's transpose. The portable
// tile rounds a full 4×2 tile's cells (one running sum) and an edge's (Dot's
// four) differently, so there a cell whose class differs between the two
// products is multiplied again in its own class; at most the rows and
// columns of the last partial strip of either product.
//
//pbg:hotpath
func MulABtReusing(c, a, b, t Matrix) {
	checkMulABt(c, a, b, nil)
	checkReuse(c, t)
	mulABtReusing(c, a, b, t, useAVX2)
}

//pbg:hotpath
func mulABtReusing(c, a, b, t Matrix, asm bool) {
	n, m, k := c.Rows, c.Cols, t.Rows
	// The transpose, four columns of C (rows of T) at a time, so each row of
	// C takes one 4-float store.
	j := 0
	for ; j+4 <= k; j += 4 {
		t0, t1, t2, t3 := t.Row(j)[:n], t.Row(j + 1)[:n], t.Row(j + 2)[:n], t.Row(j + 3)[:n]
		for i, v := range t0 {
			ci := c.Data[i*m+j : i*m+j+4]
			ci[0], ci[1], ci[2], ci[3] = v, t1[i], t2[i], t3[i]
		}
	}
	for ; j < k; j++ {
		for i, v := range t.Row(j)[:n] {
			c.Data[i*m+j] = v
		}
	}
	if asm {
		mulABtAVX2(c, a, b, nil, k)
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			tile := i < n&^3 && j < m&^1
			if tile == (j < k&^3 && i < t.Cols&^1) {
				continue
			}
			if tile {
				c.Data[i*m+j] = dotRunning(a.Row(i), b.Row(j))
			} else {
				c.Data[i*m+j] = dotGeneric(a.Row(i), b.Row(j))
			}
		}
	}
	mulABtGeneric(c, a, b, nil, k)
}

func checkReuse(c, t Matrix) {
	checkData(t, Matrix{}, Matrix{})
	if t.Rows > c.Cols || (t.Rows > 0 && t.Cols < c.Rows) {
		panic(fmt.Sprintf("vec: MulABtReusing block %dx%d for output %dx%d", t.Rows, t.Cols, c.Rows, c.Cols))
	}
}

// dotRunning is one cell of the portable 4×2 tile: a single running sum in
// order, with no split accumulators.
//
//pbg:hotpath
func dotRunning(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for k, v := range a {
		s += v * b[k]
	}
	return s
}

// mulABtGeneric is the portable MulABtRows over columns from.. of C (from is
// 0 but for MulABtReusing's remainder). Its 8 accumulators are scalars: a
// 4×4 tile's 16 would spill out of the 16 XMM registers Go's scalar codegen
// has on amd64 and measures slower than naive, so 8 is the sweet spot for
// this path (the assembly leaf holds 8 lanes per accumulator in YMM). A cell
// is a tile's or an edge's by where it sits in the whole of C, so a range
// that starts at an odd column scores that column alone as a tile would.
//
//pbg:hotpath
func mulABtGeneric(c, a, b Matrix, idx []int32, from int) {
	n, m, d := a.Rows, c.Cols, a.Cols
	i := 0
	for ; i+4 <= n; i += 4 {
		// Reslice every row to the shared length so the compiler drops the
		// bounds checks in the accumulator loop.
		x0, x1, x2, x3 := a.Row(i)[:d], a.Row(i + 1)[:d], a.Row(i + 2)[:d], a.Row(i + 3)[:d]
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := from
		if j&1 == 1 && j < m {
			bj := b.Row(rowAt(idx, j))
			c0[j], c1[j], c2[j], c3[j] = dotRunning(x0, bj), dotRunning(x1, bj), dotRunning(x2, bj), dotRunning(x3, bj)
			j++
		}
		for ; j+2 <= m; j += 2 {
			b0, b1 := b.Row(rowAt(idx, j))[:d], b.Row(rowAt(idx, j+1))[:d]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			for k := 0; k < d; k++ {
				b0k, b1k := b0[k], b1[k]
				v := x0[k]
				s00 += v * b0k
				s01 += v * b1k
				v = x1[k]
				s10 += v * b0k
				s11 += v * b1k
				v = x2[k]
				s20 += v * b0k
				s21 += v * b1k
				v = x3[k]
				s30 += v * b0k
				s31 += v * b1k
			}
			c0[j], c0[j+1] = s00, s01
			c1[j], c1[j+1] = s10, s11
			c2[j], c2[j+1] = s20, s21
			c3[j], c3[j+1] = s30, s31
		}
		if j < m {
			bj := b.Row(rowAt(idx, j))
			c0[j] = dotGeneric(x0, bj)
			c1[j] = dotGeneric(x1, bj)
			c2[j] = dotGeneric(x2, bj)
			c3[j] = dotGeneric(x3, bj)
		}
	}
	for ; i < n; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for j := from; j < m; j++ {
			ci[j] = dotGeneric(ai, b.Row(rowAt(idx, j)))
		}
	}
}

// AddOuterAtB accumulates A += G · B where G is a dense (n×m), B is (m×d), A
// is (n×d). This is the backward pass of MulABt with respect to its first
// argument: given upstream gradients G on the score matrix, each row i of A
// receives Σ_j G[i,j]·B[j]. It runs on the sparse kernel (AddRowsSparse's
// leaf), so on either path it is bitwise the ascending chain of Axpy calls,
// every zero coefficient skipped. Training passes G as SparseRows and never
// builds the dense block; the product with Gᵀ has no dense entry point and
// is AddRowsSparseT, which scatters G's rows (no transpose is built).
//
//pbg:hotpath
func AddOuterAtB(a, g, b Matrix) {
	checkOuter(a, g, b)
	addOuterDense(a, g, b, useAVX2)
}

// MatVec computes y = A · x where A is (n×d) and x has length d.
//
//pbg:hotpath
func MatVec(y []float32, a Matrix, x []float32) {
	checkMatVec("MatVec", a, len(x), len(y), a.Cols, a.Rows)
	for i := range y {
		y[i] = Dot(a.Row(i), x)
	}
}

// ComplexMul computes dst = a ∘ b where vectors of even length d are treated
// as d/2 complex numbers laid out [re₀..re_{d/2-1}, im₀..im_{d/2-1}], the
// layout ComplEx uses. dst may alias neither a nor b. Every product is
// rounded before it is added (no fused multiply-add on any platform), which
// is what lets the assembly leaf be bitwise this loop.
//
//pbg:hotpath
func ComplexMul(dst, a, b []float32) {
	checkTriple("ComplexMul", dst, a, b)
	h := len(a) / 2
	if len(a)%2 != 0 {
		panic("vec: ComplexMul requires even dimension")
	}
	if useAVX2 {
		complexMulAVX2(unsafe.SliceData(dst), unsafe.SliceData(a), unsafe.SliceData(b), h)
		return
	}
	complexMulGeneric(dst, a, b, h)
}

//pbg:hotpath
func complexMulGeneric(dst, a, b []float32, h int) {
	for i := 0; i < h; i++ {
		ar, ai := a[i], a[h+i]
		br, bi := b[i], b[h+i]
		dst[i] = float32(ar*br) - float32(ai*bi)
		dst[h+i] = float32(ar*bi) + float32(ai*br)
	}
}

// ComplexMulConjAdd accumulates dst += a ∘ conj(b) with the same layout and
// rounding as ComplexMul. Used in the backward pass of the ComplEx operator,
// which sums into gradient rows: d/dx (x∘w · g) = g ∘ conj(w) under the real
// inner product.
//
//pbg:hotpath
func ComplexMulConjAdd(dst, a, b []float32) {
	checkTriple("ComplexMulConjAdd", dst, a, b)
	h := len(a) / 2
	if len(a)%2 != 0 {
		panic("vec: ComplexMulConjAdd requires even dimension")
	}
	if useAVX2 {
		complexMulConjAddAVX2(unsafe.SliceData(dst), unsafe.SliceData(a), unsafe.SliceData(b), h)
		return
	}
	complexMulConjAddGeneric(dst, a, b, h)
}

//pbg:hotpath
func complexMulConjAddGeneric(dst, a, b []float32, h int) {
	for i := 0; i < h; i++ {
		ar, ai := a[i], a[h+i]
		br, bi := b[i], b[h+i]
		dst[i] += float32(ar*br) + float32(ai*bi)
		dst[h+i] += float32(ai*br) - float32(ar*bi)
	}
}

// LogSigmoid returns log(σ(x)) computed in a numerically stable way.
//
//pbg:hotpath
func LogSigmoid(x float32) float32 {
	// log σ(x) = -log(1+e^{-x}) = min(x,0) - log(1+e^{-|x|})
	xf := float64(x)
	return float32(math.Min(xf, 0) - math.Log1p(math.Exp(-math.Abs(xf))))
}

// Sigmoid returns σ(x) = 1/(1+e^{-x}).
//
//pbg:hotpath
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
func AllFinite(x []float32) bool {
	for _, v := range x {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
