package vec

// Declarations of the assembly in kernel_amd64.s, and the one place the
// kernel path is chosen.

// useAVX2 selects the assembly tiles. It is written here, by package
// initialisation, and nowhere else.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports whether the processor has AVX2 and FMA3 and the
// operating system saves the YMM registers across context switches.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XCR0: SSE and AVX state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotAVX2 returns Σ a[k]·b[k] over d floats: one 8-lane FMA accumulator
// stepped along k, a masked step for the last d mod 8, then a fixed
// pairwise reduction of the 8 lanes.
//
//go:noescape
func dotAVX2(a, b *float32, d int) float32

// dotTileAVX2 stores c[i·ldc+j] = dotAVX2(a+i·d, b_j, d) for i < r ≤ 4 and
// j < cc ≤ 2, each with dotAVX2's instruction sequence on its own
// accumulator. b0 and b1 are the tile's two B rows, wherever they lie; a
// one-column tile passes b0 twice.
//
//go:noescape
func dotTileAVX2(c *float32, ldc int, a *float32, r int, b0, b1 *float32, cc int, d int)

// prefetchRowsAVX2 prefetches the cache lines of rows idx[0..n) of b, d floats
// a row.
//
//go:noescape
func prefetchRowsAVX2(b *float32, d int, idx *int32, n int)

// axpyAVX2 computes y[k] = fma(alpha, x[k], y[k]) over d floats.
//
//go:noescape
func axpyAVX2(alpha float32, x, y *float32, d int)

// addRowSparseAVX2 accumulates dst[0:d] += Σ_k w[k]·src[idx[k]·d:][0:d] for
// k < nnz in ascending order, skipping ±0 weights: the FMA chain of that many
// axpyAVX2 calls, with the destination held in registers across the whole
// list. idx is dereferenced unchecked; checkSparse vouches for it.
//
//go:noescape
func addRowSparseAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int)

// complexMulAVX2 computes dst = a∘b over h complex numbers in the split
// layout of ComplexMul, with ComplexMul's unfused operation order.
//
//go:noescape
func complexMulAVX2(dst, a, b *float32, h int)

// complexMulConjAddAVX2 accumulates dst += a∘conj(b), likewise.
//
//go:noescape
func complexMulConjAddAVX2(dst, a, b *float32, h int)

// hingeMaskAVX2 sets bit j of mask (⌈n/8⌉ bytes, bits past n clear) when
// ids[j] != id and t+scores[j] > 0, and returns the float64 sum of those
// t+scores[j] and the count of ids[j] == id.
//
//go:noescape
func hingeMaskAVX2(mask *byte, scores *float32, ids *int32, n int, t float32, id int32) (sum float64, masked int)

// selectGEMaskAVX2 sets bit j of mask (⌈n/8⌉ bytes, bits past n clear) when
// x[j] is not below t; a NaN on either side sets it.
//
//go:noescape
func selectGEMaskAVX2(mask *byte, x *float32, n int, t float32)

// maxUint32AVX2 returns the unsigned maximum of n dwords at x, 0 for n = 0.
//
//go:noescape
func maxUint32AVX2(x *int32, n int) uint32
