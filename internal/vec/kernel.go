package vec

import "unsafe"

// Two implementations sit under Dot, Axpy, MulABtRows (MulABt is its nil-list
// case), AddRowsSparse (and the dense AddOuterAtB over it), ComplexMul,
// ComplexMulConjAdd, SparseRows.AppendHingeRow and SelectGE: the AVX2+FMA
// assembly leaves of kernel_amd64.s and portable Go (*Generic in vec.go and
// sparse.go). Which one runs is decided once, at package initialisation, from
// what the code can observe — GOARCH, and on amd64 the CPUID/XGETBV bits for
// AVX2, FMA and OS-saved YMM state — and never from a flag, a build tag or a
// Config field: the portable path stays because it is the only one on other
// platforms and the reference the assembly is tested against, not because
// anyone should choose it.
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
//	     landed in — and MulABtRows(c,a,b,idx)[i][j] bitwise Dot(a_i,b_idx[j])
//	     wherever row idx[j] lies: the tile is handed row addresses, so on
//	     either path a product over listed rows is bitwise the same path's
//	     MulABt over a gathered copy of them — and on both paths
//	     AddRowsSparse — hence AddOuterAtB — is
//	     bitwise the ascending chain of Axpy calls it abbreviates (on the
//	     portable path it is that chain), every ±0 weight skipped exactly:
//	     a non-finite source row under a zero weight never reaches the
//	     destination. That keeps "same query, same scores, whatever it was
//	     batched with" in serve, eval ≡ serve parity, and same-seed Workers:1
//	     ⇒ same checkpoint bytes (per kernel path) true by construction.
//	(iii) Odd rows and columns take the same leaf as full tiles, an index
//	     list of odd length, or one that names a row twice, included; no shape
//	     falls back to a slower kernel and no dimension d ≥ 0 is special-cased
//	     outside the assembly.
//
// (ii) is the assembly path's for the GEMM: the portable tile rounds a full
// tile's cells and an edge's differently, so there a score's last bits depend
// on where its row sits in the batch (which is why serving's answers are
// compared across batchings on the assembly path only).
//
// Four leaves need none of that because they are exact: the complex
// products use unfused multiplies and adds in the portable code's order, and
// AppendHingeRow's and SelectGE's comparisons select the same positions —
// SelectGE on every input, NaNs and ties with the threshold included — so
// they are bitwise the portable path (the hinge row's reported sum, which no
// gradient depends on, to float32 accuracy). The row prefetch under
// MulABtRows's assembly walk changes no result at all.
//
// Two leaves dereference an index list unchecked — addRowSparseAVX2 and, under
// MulABtRows, dotTileAVX2 — and for both the list is range-checked once per
// call before anything is loaded (checkSparse, checkMulABt: one unsigned
// maximum, maxUint32AVX2), with a constant-message panic.
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

// rowAt is which row of B column j of a MulABtRows product reads: idx[j], or
// j itself under MulABt's nil list.
func rowAt(idx []int32, j int) int {
	if idx != nil {
		return int(idx[j])
	}
	return j
}

// mulABtAVX2 walks C in 4×2 tiles. Edge tiles pass their true row and column
// counts: the tile still runs all 8 accumulators (on repeated rows) and
// stores only the ones that exist, so every C[i][j] comes out of the same
// instruction sequence as Dot. The tile is handed its two B rows as
// pointers, so a gathered product (idx non-nil; checkMulABt has range-checked
// it, the tile dereferences it unchecked) and a dense one are the same walk.
// checkData has tied each len(Data) to its shape, which is what makes the
// row addresses below — base plus row times the row's bytes — stay inside;
// an empty matrix yields pointers the tiles never dereference.
//
//pbg:hotpath
func mulABtAVX2(c, a, b Matrix, idx []int32) {
	n, m, d := a.Rows, c.Cols, a.Cols
	cp := unsafe.Pointer(unsafe.SliceData(c.Data))
	ap := unsafe.Pointer(unsafe.SliceData(a.Data))
	bp := unsafe.Pointer(unsafe.SliceData(b.Data))
	row := d * 4 // bytes of a row of A or B
	if idx != nil && n > 0 {
		prefetchRowsAVX2((*float32)(bp), d, unsafe.SliceData(idx), m)
	}
	for i := 0; i < n; i += 4 {
		ai, r := (*float32)(unsafe.Add(ap, i*row)), min(4, n-i)
		for j := 0; j < m; j += 2 {
			b0 := (*float32)(unsafe.Add(bp, rowAt(idx, j)*row))
			b1, cc := b0, 1
			if j+1 < m {
				b1, cc = (*float32)(unsafe.Add(bp, rowAt(idx, j+1)*row)), 2
			}
			dotTileAVX2((*float32)(unsafe.Add(cp, (i*m+j)*4)), m, ai, r, b0, b1, cc, d)
		}
	}
}
