//go:build !amd64

package vec

// No assembly on this platform: the portable kernels are the only path, and
// the stubs below exist so the dispatch in vec.go compiles (it is dead code
// under the constant).
const useAVX2 = false

func dotAVX2(a, b *float32, d int) float32 { panic("vec: no assembly kernels") }

func axpyAVX2(alpha float32, x, y *float32, d int) { panic("vec: no assembly kernels") }

func dotStripAVX2(c, a *float32, r int, b *float32, idx *int32, m, pre, d, ldc int) {
	panic("vec: no assembly kernels")
}

func adagradRowsAVX2(embs, acc *float32, ids *int32, first int, grad *float32, n, d int, lr, eps float32) {
	panic("vec: no assembly kernels")
}

func addRowSparseAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int) {
	panic("vec: no assembly kernels")
}

func scatterRowAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int) {
	panic("vec: no assembly kernels")
}

func complexMulAVX2(dst, a, b *float32, h int) { panic("vec: no assembly kernels") }

func complexMulConjAddAVX2(dst, a, b *float32, h int) { panic("vec: no assembly kernels") }

func hingePackAVX2(idx *int32, w *float32, scores *float32, ids *int32, n int, t float32, id int32, wt float32, base int32) (sum float64, masked, count int) {
	panic("vec: no assembly kernels")
}

func selectGEPackAVX2(idx *int32, x *float32, n int, t float32) int {
	panic("vec: no assembly kernels")
}

func minMaxInt32AVX2(x *int32, n int) (lo, hi int32) { panic("vec: no assembly kernels") }

func prefetchSpanAVX2(p *float32, n int) { panic("vec: no assembly kernels") }
