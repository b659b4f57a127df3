//go:build !amd64

package vec

// No assembly on this platform: the portable kernels are the only path, and
// the stubs below exist so the dispatch in vec.go compiles (it is dead code
// under the constant).
const useAVX2 = false

func dotAVX2(a, b *float32, d int) float32 { panic("vec: no assembly kernels") }

func axpyAVX2(alpha float32, x, y *float32, d int) { panic("vec: no assembly kernels") }

func dotTileAVX2(c *float32, ldc int, a *float32, r int, b0, b1 *float32, cc int, d int) {
	panic("vec: no assembly kernels")
}

func addRowSparseAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int) {
	panic("vec: no assembly kernels")
}

func complexMulAVX2(dst, a, b *float32, h int) { panic("vec: no assembly kernels") }

func complexMulConjAddAVX2(dst, a, b *float32, h int) { panic("vec: no assembly kernels") }

func hingeMaskAVX2(mask *byte, scores *float32, ids *int32, n int, t float32, id int32) (sum float64, masked int) {
	panic("vec: no assembly kernels")
}

func prefetchRowsAVX2(b *float32, d int, idx *int32, n int) { panic("vec: no assembly kernels") }

func selectGEMaskAVX2(mask *byte, x *float32, n int, t float32) { panic("vec: no assembly kernels") }

func maxUint32AVX2(x *int32, n int) uint32 { panic("vec: no assembly kernels") }
