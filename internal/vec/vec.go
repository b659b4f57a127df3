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
// assembly tile reads row idx[j] of b by pointer arithmetic, so the list is
// range-checked here, once per call, before any row is loaded.
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
	if !indicesBelow(idx, b.Rows) {
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

// checkData is the bounds gate of the three GEMMs: the assembly tiles address
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
// dimension once for a 4-row tile of A against a 2-row tile of B, keeping 8
// accumulators live in registers — 8 FMAs per 6 loads versus 1 FMA per 2
// loads for the row-times-row formulation. On the assembly path every
// C[i][j] is bitwise Dot(a_i, b_j) wherever the tile grid puts it (see
// kernel.go).
//
//pbg:hotpath
func MulABt(c, a, b Matrix) {
	MulABtRows(c, a, b, nil)
}

// MulABtRows computes C[i][j] = Dot(a_i, b[idx[j]]): MulABt against the rows
// idx of B, read where they lie instead of being gathered next to each other
// first. A is (n×d), B is (m×d), C is (n×len(idx)); a row may be listed more
// than once. A nil idx lists every row of B in order, which is MulABt. It is
// the same tile walk on the same leaf as MulABt — on the assembly path bitwise
// MulABt over a gathered copy of the rows, and bitwise Dot — so serving scores
// a probed list straight out of a read-only mapping. Listed rows lie where no
// hardware prefetcher looks, so the assembly walk asks for all of them before
// its first tile (a hint: it changes no result). An index outside B panics
// before any row is read.
//
//pbg:hotpath
func MulABtRows(c, a, b Matrix, idx []int32) {
	checkMulABt(c, a, b, idx)
	if useAVX2 {
		mulABtAVX2(c, a, b, idx)
		return
	}
	mulABtGeneric(c, a, b, idx)
}

// mulABtGeneric is the portable MulABtRows. Its 8 accumulators are scalars: a
// 4×4 tile's 16 would spill out of the 16 XMM registers Go's scalar codegen
// has on amd64 and measures slower than naive, so 8 is the sweet spot for
// this path (the assembly tile holds 8 lanes per accumulator in YMM).
//
//pbg:hotpath
func mulABtGeneric(c, a, b Matrix, idx []int32) {
	n, m, d := a.Rows, c.Cols, a.Cols
	i := 0
	for ; i+4 <= n; i += 4 {
		// Reslice every row to the shared length so the compiler drops the
		// bounds checks in the accumulator loop.
		x0, x1, x2, x3 := a.Row(i)[:d], a.Row(i + 1)[:d], a.Row(i + 2)[:d], a.Row(i + 3)[:d]
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := 0
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
		for j := 0; j < m; j++ {
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
// is AddRowsSparse over SparseRows.TransposeInto.
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

// MatTVec computes y = Aᵀ · x where A is (n×d) and x has length n.
//
//pbg:hotpath
func MatTVec(y []float32, a Matrix, x []float32) {
	checkMatVec("MatTVec", a, len(x), len(y), a.Rows, a.Cols)
	Zero(y)
	for i := 0; i < a.Rows; i++ {
		Axpy(x[i], a.Row(i), y)
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

// LogSumExp returns log Σ exp(xᵢ) computed stably. Returns -Inf for an empty
// slice.
func LogSumExp(xs []float32) float32 {
	if len(xs) == 0 {
		return float32(math.Inf(-1))
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(float64(x - m))
	}
	return m + float32(math.Log(s))
}

// Softmax writes softmax(xs) into dst (may alias xs).
func Softmax(dst, xs []float32) {
	if len(dst) != len(xs) {
		panic("vec: Softmax length mismatch")
	}
	lse := LogSumExp(xs)
	for i, x := range xs {
		dst[i] = float32(math.Exp(float64(x - lse)))
	}
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
