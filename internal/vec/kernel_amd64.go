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

// dotTileAVX2 stores c[i·ldc+j] = dotAVX2(a+i·d, b+j·d, d) for i < r ≤ 4 and
// j < cc ≤ 2, each with dotAVX2's instruction sequence on its own
// accumulator.
//
//go:noescape
func dotTileAVX2(c *float32, ldc int, a *float32, r int, b *float32, cc int, d int)

// axpyAVX2 computes y[k] = fma(alpha, x[k], y[k]) over d floats.
//
//go:noescape
func axpyAVX2(alpha float32, x, y *float32, d int)

// axpyTileAVX2 adds four source rows (src, src+d, …) into two destination
// rows (dst, dst+d): per element the ascending chain
// fma(w03, s3, fma(w02, s2, fma(w01, s1, fma(w00, s0, dst)))), and the same
// with w1· for the second row — four axpyAVX2 calls per row in one pass.
//
//go:noescape
func axpyTileAVX2(dst, src *float32, d int, w00, w01, w02, w03, w10, w11, w12, w13 float32)
