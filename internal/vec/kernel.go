package vec

import "unsafe"

// Two implementations sit under Dot, Axpy, MulABt, AddOuterAtB and
// AddOuterGtA: the AVX2+FMA assembly tiles of kernel_amd64.s and the portable
// Go kernels (*Generic in vec.go). Which one runs is decided once, at package
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
//	(ii) On the assembly path results are position-independent:
//	     MulABt(c,a,b)[i][j] is bitwise Dot(a_i,b_j) whatever tile or edge it
//	     landed in, and AddOuterAtB/AddOuterGtA are bitwise the ascending-index
//	     chain of Axpy calls they abbreviate, zero weights skipped. That keeps
//	     "same query, same scores, whatever it was batched with" in serve,
//	     eval ≡ serve parity, and same-seed Workers:1 ⇒ same checkpoint bytes
//	     (per kernel path) true by construction.
//	(iii) Odd rows and columns take the same leaf as full tiles; no shape
//	     falls back to a slower kernel and no dimension d ≥ 0 is special-cased
//	     outside the assembly.
//
// One documented exception to (ii), shared with the portable kernels: a zero
// weight is skipped only where the tile grid lets the driver see it — a 2×4
// coefficient tile that is all zero, or any coefficient outside whole tiles.
// A zero inside a tile that also holds a non-zero weight contributes
// fma(0, s, x) instead: x itself for every finite s (a −0 destination becomes
// +0), NaN when s is ±Inf or NaN. Both paths tile G identically, so non-finite
// operands propagate the same on both.
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

// addOuterAVX2 computes dst[p] += Σ_q g[p·sp+q·sq]·src[q], the shape
// AddOuterAtB (sp = m, sq = 1) and AddOuterGtA (sp = 1, sq = m) share, on the
// tile grid of the portable kernels: 2 destination rows × 4 source rows per
// tile, all-zero tiles skipped, the ragged edges one Axpy per non-zero weight.
//
//pbg:hotpath
func addOuterAVX2(dst, src Matrix, g []float32, sp, sq int) {
	np, nq, d := dst.Rows, src.Rows, dst.Cols
	p := 0
	for ; p+2 <= np; p += 2 {
		d0, d1 := rowPtr(dst, p), rowPtr(dst, p+1)
		q := 0
		for ; q+4 <= nq; q += 4 {
			w0 := g[p*sp+q*sq:]
			w1 := w0[sp:]
			w00, w01, w02, w03 := w0[0], w0[sq], w0[2*sq], w0[3*sq]
			w10, w11, w12, w13 := w1[0], w1[sq], w1[2*sq], w1[3*sq]
			if w00 == 0 && w01 == 0 && w02 == 0 && w03 == 0 &&
				w10 == 0 && w11 == 0 && w12 == 0 && w13 == 0 {
				continue
			}
			axpyTileAVX2(d0, rowPtr(src, q), d, w00, w01, w02, w03, w10, w11, w12, w13)
		}
		for ; q < nq; q++ {
			s := rowPtr(src, q)
			if w := g[p*sp+q*sq]; w != 0 {
				axpyAVX2(w, s, d0, d)
			}
			if w := g[(p+1)*sp+q*sq]; w != 0 {
				axpyAVX2(w, s, d1, d)
			}
		}
	}
	if p < np {
		d0 := rowPtr(dst, p)
		for q := 0; q < nq; q++ {
			if w := g[p*sp+q*sq]; w != 0 {
				axpyAVX2(w, rowPtr(src, q), d0, d)
			}
		}
	}
}
