package vec

import "unsafe"

// Two implementations sit under Dot, Axpy, AdagradRows, MulABtRows (MulABt is
// its nil-list case), AddRowsSparse (and the dense AddOuterAtB over it),
// AddRowsSparseT, ComplexMul, ComplexMulConjAdd, SparseRows.AppendHingeRow
// and SelectGE: the
// AVX2+FMA assembly leaves of kernel_amd64.s and portable Go (*Generic in
// vec.go and sparse.go). Which one runs is decided once, at package
// initialisation, from what the code can observe — GOARCH, and on amd64 the
// CPUID/XGETBV bits for AVX2, FMA and OS-saved YMM state — and never from a
// flag, a build tag or a Config field: the portable path stays because it is
// the only one on other platforms and the reference the assembly is tested
// against, not because anyone should choose it.
//
// FMA and 8-lane accumulation cannot be bit-equal to a scalar loop, so the
// numerical contract between the two is:
//
//	(i)  Every kernel, on both paths, is within the order-independent bound
//	     γ_d·Σ|a_k·b_k| of the exact (float64) result, γ_d = d·2⁻²⁴/(1−d·2⁻²⁴)
//	     with d the number of terms summed (for the accumulating kernels, the
//	     previous value of the destination counts as one term).
//	(ii) Results are position-independent: on the assembly path
//	     MulABt(c,a,b)[i][j] is bitwise Dot(a_i,b_j) whatever strip, column
//	     pair or edge it landed in — and MulABtRows(c,a,b,idx)[i][j] bitwise
//	     Dot(a_i,b_idx[j]) wherever row idx[j] lies: the leaf addresses each
//	     column's row itself, so on either path a product over listed rows is bitwise the same path's
//	     MulABt over a gathered copy of them, and MulABtReusing, which reads
//	     columns from a product taken the other way round, is bitwise the
//	     same path's MulABt — and on both paths
//	     AddRowsSparse — hence AddOuterAtB — and AddRowsSparseT are
//	     bitwise the ascending chain of Axpy calls they abbreviate (on the
//	     portable path they are that chain; for AddRowsSparseT it is the
//	     chain AddRowsSparse would make over Gᵀ, each destination row's
//	     entries in ascending source row), every ±0 weight skipped exactly:
//	     a non-finite source row under a zero weight never reaches the
//	     destination. Likewise AdagradRows is bitwise the same path's
//	     per-row chain it abbreviates — Dot of the gradient row with itself,
//	     the scalar accumulator and step, Axpy — one listed row after
//	     another, a row listed twice included (on the portable path it is
//	     that chain; the leaf runs dotAVX2's and axpyAVX2's instruction
//	     sequences and scalar SSE between them). That keeps "same query, same scores, whatever it was
//	     batched with" in serve, eval ≡ serve parity, and same-seed Workers:1
//	     ⇒ same checkpoint bytes (per kernel path) true by construction.
//	(iii) Odd rows and columns take the same leaf as full strips, an index
//	     list of odd length, or one that names a row twice, included; no shape
//	     falls back to a slower kernel and no dimension d ≥ 0 is special-cased
//	     outside the assembly. Inside the GEMM leaf a strip's tile follows
//	     its row count — 4×2 for 3 or 4 rows (at 3 the fourth aliases the
//	     third), 2×4 for 2, 1×8 for 1 — so a strip of r < 4 rows pays for
//	     the rows it has; every tile keeps 8 accumulators and Dot's
//	     instruction sequence per cell, which is what (ii) needs.
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
// gradient depends on, to float32 accuracy). Those two left-pack: each
// 8-lane step's movemask indexes a 256-entry table of lane numbers, and the
// step stores 8 positions (and for the hinge 8 copies of the weight) at the
// current count before POPCNT advances it, so the last step of a row
// overwrites up to 7 entries past the ones it keeps. Both paths therefore
// demand PackSlack entries of room past the input, and neither writes
// beyond it. The row prefetch inside the
// GEMM leaf changes no result at all: while the first strip of a listed
// product scores a tile from column j on it asks for the rows listed for as
// many columns from j+8 on as the tile is wide (2, 4 or 8), and reads the
// list only while those are inside it, so the first 8 listed rows are never
// asked for and a list of 8 or fewer gets no prefetch. Dense products never prefetch. Prefetch, the one other leaf that
// touches no result, asks for a row span's cache lines a caller names ahead of
// time (the trainer's next chunk); its portable twin is a no-op.
//
// Four leaves dereference an index list unchecked — addRowSparseAVX2,
// scatterRowAVX2, adagradRowsAVX2 and, under MulABtRows, the GEMM leaf
// dotStripAVX2 (for its rows and its look-ahead) — and for each the list is
// range-checked once per call before anything is loaded or stored
// (checkSparse, checkMulABt, checkAdagradRows: one pass for the list's signed
// minimum and maximum, minMaxInt32AVX2, against the rows it may name), with a
// fixed-message panic.
//
// Two assembly leaves do weighted row accumulation, one per backward product
// of a score block, and share one index-list walk (ROWWALK): the
// row-stationary addRowSparseAVX2 under AddRowsSparse and the dense entry
// point (G·B: a destination row held in registers while its list of source
// rows is walked), and the column-stationary scatterRowAVX2 under
// AddRowsSparseT (Gᵀ·A: a source row held in registers while its list of
// destination rows is walked, each updated in memory). Axpy keeps its own
// leaf rather than becoming either one's one-row, one-weight case: it has no
// list to walk, it is the definition (ii) holds the sparse leaves and the
// Adagrad leaf to, and the Adagrad leaf repeats its instruction sequence for
// each row's step rather than calling it, since a call per row is the
// overhead that leaf exists to remove.
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

// mulABtAVX2 hands columns from.. of C to the strip leaf four rows at a time
// (from is 0 but for MulABtReusing's remainder, which the leaf stores straight
// into the wider C, c.Cols floats a row). The last strip passes its true row
// count, and the leaf picks its tile by it — 1×8 for one row, 2×4 for two —
// so an n = 1 product (eval's ranking row, batch-1 serving) or a list probed
// by 13 queries pays for the rows it has, not for 4; every tile runs 8
// accumulators and every C[i][j] comes out of the same instruction sequence
// as Dot. The leaf addresses B rows
// itself — row j, or row idx[j] (checkMulABt has range-checked the list, the
// leaf dereferences it unchecked) — so a gathered product and a dense one are
// the same walk. Only the first strip of a listed product prefetches: it is
// the one that meets each listed row first. checkData has tied each len(Data)
// to its shape, which is what keeps the leaf's row addresses inside; an empty
// range returns before any pointer is formed.
//
//pbg:hotpath
func mulABtAVX2(c, a, b Matrix, idx []int32, from int) {
	n, m, d, ldc := a.Rows, c.Cols-from, a.Cols, c.Cols
	if n == 0 || m == 0 {
		return
	}
	cp := unsafe.Pointer(&c.Data[from])
	ap := unsafe.Pointer(unsafe.SliceData(a.Data))
	bp, ip := unsafe.SliceData(b.Data), unsafe.SliceData(idx)
	pre := 0
	if idx != nil {
		ip, pre = &idx[from], m
	} else if d > 0 {
		bp = &b.Data[from*d]
	}
	for i := 0; i < n; i += 4 {
		dotStripAVX2((*float32)(unsafe.Add(cp, i*ldc*4)), (*float32)(unsafe.Add(ap, i*d*4)), min(4, n-i), bp, ip, m, pre, d, ldc)
		pre = 0
	}
}
