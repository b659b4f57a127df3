package vec

import "unsafe"

// Two implementations sit under Dot, Axpy, MulABt, AddRowsSparse (and the
// dense AddOuterAtB over it), ComplexMul, ComplexMulConjAdd and
// SparseRows.AppendHingeRow: the AVX2+FMA assembly leaves of kernel_amd64.s
// and portable Go (*Generic in vec.go and sparse.go). Which one runs is
// decided once, at package initialisation, from what the code can observe —
// GOARCH, and on amd64 the CPUID/XGETBV bits for AVX2, FMA and OS-saved YMM
// state — and never from a flag, a build tag or a Config field: the portable
// path stays because it is the only one on other platforms and the reference
// the assembly is tested against, not because anyone should choose it.
//
// FMA and 8-lane accumulation cannot be bit-equal to a scalar loop, so the
// numerical contract between the two is:
//
//	(i)  Every kernel, on both paths, is within the order-independent bound
//	     γ_d·Σ|a_k·b_k| of the exact (float64) result, γ_d = d·2⁻²⁴/(1−d·2⁻²⁴)
//	     with d the number of terms summed (for the accumulating kernels, the
//	     previous value of the destination counts as one term).
//	(ii) Results are position-independent: on the assembly path
//	     MulABt(c,a,b)[i][j] is bitwise Dot(a_i,b_j) whatever tile or edge it
//	     landed in, and on both paths AddRowsSparse — hence AddOuterAtB — is
//	     bitwise the ascending chain of Axpy calls it abbreviates (on the
//	     portable path it is that chain), every ±0 weight skipped exactly:
//	     a non-finite source row under a zero weight never reaches the
//	     destination. That keeps "same query, same scores, whatever it was
//	     batched with" in serve, eval ≡ serve parity, and same-seed Workers:1
//	     ⇒ same checkpoint bytes (per kernel path) true by construction.
//	(iii) Odd rows and columns take the same leaf as full tiles; no shape
//	     falls back to a slower kernel and no dimension d ≥ 0 is special-cased
//	     outside the assembly.
//
// Three leaves need none of that because they are exact: the complex
// products use unfused multiplies and adds in the portable code's order, and
// AppendHingeRow's comparisons select the same columns, so both are bitwise
// the portable path (the hinge row's reported sum, which no gradient depends
// on, to float32 accuracy).
//
// One assembly leaf does weighted row accumulation: addRowSparseAVX2, under
// AddRowsSparse and the dense entry point. Axpy keeps its own 46-line leaf
// rather than becoming that leaf's one-row, one-weight case: it has no list
// to walk, its callers (the Adagrad row update, the pair backward) are
// per-call-overhead-bound, and it is the definition (ii) tests the sparse
// leaf against.
//
// What is comparable across machines: two runs on the same kernel path are
// bitwise identical (the assembly has one instruction sequence, whatever the
// processor model); a generic run and an avx2+fma run agree only to (i).

// Kernel names the implementation under the hot kernels of this process:
// "avx2+fma" or "generic". Loss curves and checkpoint bytes are a function of
// it, so the commands print it at start-up and /metrics exports it.
func Kernel() string {
	if useAVX2 {
		return "avx2+fma"
	}
	return "generic"
}

// KernelMetric is the name of the constant /metrics series (value 1) that
// carries Kernel in a label, for the commands to register on their hubs.
func KernelMetric() string {
	return `pbg_vec_kernel_info{impl="` + Kernel() + `"}`
}

// rowPtr is row i of m for the assembly tiles. checkData has already tied
// len(m.Data) to the shape; an empty matrix yields a pointer the tiles never
// dereference.
func rowPtr(m Matrix, i int) *float32 {
	return (*float32)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(m.Data)), i*m.Cols*4))
}

// mulABtAVX2 walks C in 4×2 tiles. Edge tiles pass their true row and column
// counts: the tile still runs all 8 accumulators (on repeated rows) and
// stores only the ones that exist, so every C[i][j] comes out of the same
// instruction sequence as Dot.
//
//pbg:hotpath
func mulABtAVX2(c, a, b Matrix) {
	n, m, d := a.Rows, b.Rows, a.Cols
	cp := unsafe.Pointer(unsafe.SliceData(c.Data))
	for i := 0; i < n; i += 4 {
		ai, r := rowPtr(a, i), min(4, n-i)
		for j := 0; j < m; j += 2 {
			dotTileAVX2((*float32)(unsafe.Add(cp, (i*m+j)*4)), m, ai, r, rowPtr(b, j), min(2, m-j), d)
		}
	}
}
