//go:build !amd64

package vec

// No assembly on this platform: the portable kernels are the only path, and
// the stubs below exist so the dispatch in vec.go compiles (it is dead code
// under the constant).
const useAVX2 = false

func dotAVX2(a, b *float32, d int) float32 { panic("vec: no assembly kernels") }

func axpyAVX2(alpha float32, x, y *float32, d int) { panic("vec: no assembly kernels") }

func dotTileAVX2(c *float32, ldc int, a *float32, r int, b *float32, cc int, d int) {
	panic("vec: no assembly kernels")
}

func axpyTileAVX2(dst, src *float32, d int, w00, w01, w02, w03, w10, w11, w12, w13 float32) {
	panic("vec: no assembly kernels")
}
