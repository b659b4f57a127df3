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

// dotStripAVX2 stores c[i·ldc+j] = dotAVX2(a+i·d, b_j, d) for i < r ≤ 4 and
// j < m (ldc is m for a whole C, its full width for a column range), each
// with dotAVX2's instruction sequence on its own accumulator: one call per
// strip of C, in tiles of 4×2 (r ≥ 3), 2×4 (r = 2) or 1×8 (r = 1) cells. b_j
// is row j of b, or row idx[j] when idx is non-nil; idx is dereferenced
// unchecked, checkMulABt vouches for it. While it scores a tile from column
// j on it prefetches the rows listed for as many columns from j+8 on as the
// tile is wide, when those are below pre (m on a listed product's first
// strip, 0 otherwise).
//
//go:noescape
func dotStripAVX2(c, a *float32, r int, b *float32, idx *int32, m, pre, d, ldc int)

// axpyAVX2 computes y[k] = fma(alpha, x[k], y[k]) over d floats.
//
//go:noescape
func axpyAVX2(alpha float32, x, y *float32, d int)

// adagradRowsAVX2 applies, for k < n in ascending order, the row Adagrad step
// of gradient row k (d floats at grad+k·d) to row ids[k]−first of embs and
// its accumulator in acc, each with the instruction sequence of the per-row
// dotAVX2 → scalar → axpyAVX2 chain. ids is dereferenced unchecked;
// AdagradRows vouches for it.
//
//go:noescape
func adagradRowsAVX2(embs, acc *float32, ids *int32, first int, grad *float32, n, d int, lr, eps float32)

// addRowSparseAVX2 accumulates dst[0:d] += Σ_k w[k]·src[idx[k]·d:][0:d] for
// k < nnz in ascending order, skipping ±0 weights: the FMA chain of that many
// axpyAVX2 calls, with the destination held in registers across the whole
// list. idx is dereferenced unchecked; checkSparse vouches for it.
//
//go:noescape
func addRowSparseAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int)

// scatterRowAVX2 accumulates dst[idx[k]·d:][0:d] += w[k]·src[0:d] for k <
// nnz in ascending order, skipping ±0 weights: per destination row the FMA
// of one axpyAVX2 call per entry, with the source row held in registers
// across the whole list. idx is dereferenced unchecked; checkSparse vouches
// for it.
//
//go:noescape
func scatterRowAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int)

// complexMulAVX2 computes dst = a∘b over h complex numbers in the split
// layout of ComplexMul, with ComplexMul's unfused operation order.
//
//go:noescape
func complexMulAVX2(dst, a, b *float32, h int)

// complexMulConjAddAVX2 accumulates dst += a∘conj(b), likewise.
//
//go:noescape
func complexMulConjAddAVX2(dst, a, b *float32, h int)

// hingePackAVX2 writes to idx, ascending, base+j for every j < n with ids[j]
// != id and t+scores[j] > 0, and wt to w beside each, and returns the float64
// sum of those t+scores[j], the count of ids[j] == id and how many it wrote.
// It stores 8 entries of each list per 8 scores, so it may overwrite up to 7
// entries past the last it writes.
//
//go:noescape
func hingePackAVX2(idx *int32, w *float32, scores *float32, ids *int32, n int, t float32, id int32, wt float32, base int32) (sum float64, masked, count int)

// selectGEPackAVX2 writes to idx, ascending, every j < n with x[j] not below
// t — a NaN on either side selects it — and returns how many. It may
// overwrite up to 7 entries past the last it writes, as hingePackAVX2 does.
//
//go:noescape
func selectGEPackAVX2(idx *int32, x *float32, n int, t float32) int

// packIndex[m] holds in byte k the lane of the k-th set bit of the 8-bit
// mask m: the two pack leaves widen it into the positions they store.
var packIndex = func() (t [256]uint64) {
	for m := range t {
		k := 0
		for lane := range 8 {
			if m>>lane&1 != 0 {
				t[m] |= uint64(lane) << (8 * k)
				k++
			}
		}
	}
	return t
}()

// minMaxInt32AVX2 returns the signed minimum and maximum of n ≥ 1 dwords at
// x.
//
//go:noescape
func minMaxInt32AVX2(x *int32, n int) (lo, hi int32)

// prefetchSpanAVX2 prefetches every cache line of the n floats at p.
//
//go:noescape
func prefetchSpanAVX2(p *float32, n int)
