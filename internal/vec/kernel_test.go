package vec

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/rng"
)

// The parity suite of the numerical contract in kernel.go: both kernel paths
// against a float64 reference (i), and the assembly path against itself for
// position-independence (ii), over shapes that put every tile edge, every
// d mod 8 and unaligned operands on the path.

// kernels is one implementation of the five dispatched entry points.
type kernels struct {
	name        string
	dot         func(a, b []float32) float32
	axpy        func(alpha float32, x, y []float32)
	mulABt      func(c, a, b Matrix)
	addOuterAtB func(a, g, b Matrix)
	addOuterGtA func(b, g, a Matrix)
}

var (
	genericKernels = kernels{"generic", dotGeneric, axpyGeneric, mulABtGeneric, addOuterAtBGeneric, addOuterGtAGeneric}
	activeKernels  = kernels{Kernel(), Dot, Axpy, MulABt, AddOuterAtB, AddOuterGtA}
)

// bothPaths is the active path and, when that is the assembly, the portable
// one beside it.
func bothPaths() []kernels {
	if Kernel() == "generic" {
		return []kernels{genericKernels}
	}
	return []kernels{activeKernels, genericKernels}
}

// offMatrix is a random rows×cols matrix whose data starts off floats into
// its allocation, so rows are misaligned for every vector width.
func offMatrix(r *rng.RNG, rows, cols, off int) Matrix {
	buf := make([]float32, off+rows*cols)
	data := buf[off:]
	for i := range data {
		data[i] = r.NormFloat32()
	}
	return MatrixFrom(data, rows, cols)
}

func cloneMatrix(m Matrix) Matrix {
	return MatrixFrom(append([]float32(nil), m.Data...), m.Rows, m.Cols)
}

// sparsify zeroes about a third of g, plus its leading 2×4 tile when there
// is one, so the GEMM drivers meet mixed tiles, an all-zero tile and zero
// coefficients on the ragged edges.
func sparsify(r *rng.RNG, g Matrix) {
	for i := range g.Data {
		if r.Intn(3) == 0 {
			g.Data[i] = 0
		}
	}
	if g.Rows >= 2 && g.Cols >= 4 {
		for i := 0; i < 2; i++ {
			for j := 0; j < 4; j++ {
				g.Row(i)[j] = 0
			}
		}
	}
}

// gamma is γ_n = n·u/(1−n·u) at float32's unit roundoff u = 2⁻²⁴.
func gamma(n int) float64 {
	nu := float64(n) / (1 << 24)
	return nu / (1 - nu)
}

// withinBound checks contract (i) for one output: got against the exact sum
// of the given terms.
func withinBound(got float32, nTerms int, exact, absSum float64) bool {
	return math.Abs(float64(got)-exact) <= gamma(nTerms)*absSum
}

// checkBound runs every kernel of ks on one shape and checks contract (i).
func checkBound(ks kernels, n, m, d, off int, seed uint64) error {
	r := rng.New(seed)
	a, b := offMatrix(r, n, d, off), offMatrix(r, m, d, off)
	g := offMatrix(r, n, m, off)
	sparsify(r, g)

	c := offMatrix(r, n, m, off)
	ks.mulABt(c, a, b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var exact, abs float64
			for k := 0; k < d; k++ {
				p := float64(a.Row(i)[k]) * float64(b.Row(j)[k])
				exact += p
				abs += math.Abs(p)
			}
			if got := c.Row(i)[j]; !withinBound(got, d, exact, abs) {
				return fmt.Errorf("MulABt[%d][%d] = %v, exact %v, bound %v", i, j, got, exact, gamma(d)*abs)
			}
			if got := ks.dot(a.Row(i), b.Row(j)); !withinBound(got, d, exact, abs) {
				return fmt.Errorf("Dot(a%d, b%d) = %v, exact %v, bound %v", i, j, got, exact, gamma(d)*abs)
			}
		}
	}

	// outer checks dst += W·src for one of the two accumulating GEMMs, with
	// w(p, q) the coefficient of source row q in destination row p.
	outer := func(op string, dst0, dst, src Matrix, w func(p, q int) float32) error {
		for p := 0; p < dst.Rows; p++ {
			for k := 0; k < d; k++ {
				exact := float64(dst0.Row(p)[k])
				abs := math.Abs(exact)
				for q := 0; q < src.Rows; q++ {
					t := float64(w(p, q)) * float64(src.Row(q)[k])
					exact += t
					abs += math.Abs(t)
				}
				if got := dst.Row(p)[k]; !withinBound(got, src.Rows+1, exact, abs) {
					return fmt.Errorf("%s[%d][%d] = %v, exact %v, bound %v", op, p, k, got, exact, gamma(src.Rows+1)*abs)
				}
			}
		}
		return nil
	}
	accA0 := offMatrix(r, n, d, off)
	accA := cloneMatrix(accA0)
	ks.addOuterAtB(accA, g, b)
	if err := outer("AddOuterAtB", accA0, accA, b, func(p, q int) float32 { return g.Row(p)[q] }); err != nil {
		return err
	}
	accB0 := offMatrix(r, m, d, off)
	accB := cloneMatrix(accB0)
	ks.addOuterGtA(accB, g, a)
	if err := outer("AddOuterGtA", accB0, accB, a, func(p, q int) float32 { return g.Row(q)[p] }); err != nil {
		return err
	}

	if n > 0 && m > 0 {
		y0 := offMatrix(r, 1, d, off)
		y := cloneMatrix(y0)
		alpha := g.Data[len(g.Data)-1]
		ks.axpy(alpha, a.Row(0), y.Data)
		for k := 0; k < d; k++ {
			t := float64(alpha) * float64(a.Row(0)[k])
			exact := float64(y0.Data[k]) + t
			if !withinBound(y.Data[k], 2, exact, math.Abs(float64(y0.Data[k]))+math.Abs(t)) {
				return fmt.Errorf("Axpy[%d] = %v, exact %v", k, y.Data[k], exact)
			}
		}
	}
	return nil
}

func sameBits(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// checkPositionIndependent checks contract (ii) on the active path: the
// GEMMs against the Dot and Axpy calls they abbreviate, bit for bit.
func checkPositionIndependent(n, m, d, off int, seed uint64) error {
	r := rng.New(seed)
	a, b := offMatrix(r, n, d, off), offMatrix(r, m, d, off)
	g := offMatrix(r, n, m, off)
	sparsify(r, g)

	c := offMatrix(r, n, m, off)
	MulABt(c, a, b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if want := Dot(a.Row(i), b.Row(j)); !sameBits(c.Row(i)[j], want) {
				return fmt.Errorf("MulABt[%d][%d] = %v, Dot of the same rows %v", i, j, c.Row(i)[j], want)
			}
		}
	}

	accA := offMatrix(r, n, d, off)
	want := cloneMatrix(accA)
	AddOuterAtB(accA, g, b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			Axpy(g.Row(i)[j], b.Row(j), want.Row(i))
		}
	}
	for i := range want.Data {
		if !sameBits(accA.Data[i], want.Data[i]) {
			return fmt.Errorf("AddOuterAtB element %d = %v, Axpy chain %v", i, accA.Data[i], want.Data[i])
		}
	}

	accB := offMatrix(r, m, d, off)
	want = cloneMatrix(accB)
	AddOuterGtA(accB, g, a)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			Axpy(g.Row(i)[j], a.Row(i), want.Row(j))
		}
	}
	for i := range want.Data {
		if !sameBits(accB.Data[i], want.Data[i]) {
			return fmt.Errorf("AddOuterGtA element %d = %v, Axpy chain %v", i, accB.Data[i], want.Data[i])
		}
	}
	return nil
}

var (
	parityRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 100}
	parityDims = []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 128}
)

// eachParityShape visits the table: every (n, m, d), with a seed and an
// allocation offset in 1..7 that vary with the shape.
func eachParityShape(f func(n, m, d, off int, seed uint64)) {
	shape := 0
	for _, n := range parityRows {
		for _, m := range parityRows {
			for _, d := range parityDims {
				shape++
				f(n, m, d, 1+shape%7, uint64(shape))
			}
		}
	}
}

func TestKernelErrorBound(t *testing.T) {
	for _, ks := range bothPaths() {
		t.Run(ks.name, func(t *testing.T) {
			eachParityShape(func(n, m, d, off int, seed uint64) {
				if err := checkBound(ks, n, m, d, off, seed); err != nil {
					t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
				}
			})
		})
	}
}

func TestKernelPositionIndependent(t *testing.T) {
	if Kernel() == "generic" {
		t.Skip("contract (ii) is the assembly path's; this machine runs the generic kernels")
	}
	eachParityShape(func(n, m, d, off int, seed uint64) {
		if err := checkPositionIndependent(n, m, d, off, seed); err != nil {
			t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
		}
	})
}

// class is what must agree between the paths on non-finite data: NaN, +Inf,
// −Inf, or finite.
func class(x float32) int {
	switch f := float64(x); {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return 1
	case math.IsInf(f, -1):
		return 2
	}
	return 3
}

// TestKernelNonFinitePropagation plants NaN and ±Inf in each operand in turn
// and requires every output of the active path to be of the same class as the
// portable kernel's. The two tile G identically, so that includes where a
// zero weight hides a non-finite source row and where it does not.
func TestKernelNonFinitePropagation(t *testing.T) {
	inf := float32(math.Inf(1))
	poisons := []float32{float32(math.NaN()), inf, -inf}
	const n, m, d, off = 7, 9, 13, 3
	for pi, poison := range poisons {
		for operand := 0; operand < 3; operand++ {
			build := func() (a, b, g, accA, accB Matrix) {
				r := rng.New(uint64(41 + pi))
				a, b, g = offMatrix(r, n, d, off), offMatrix(r, m, d, off), offMatrix(r, n, m, off)
				sparsify(r, g)
				accA, accB = offMatrix(r, n, d, off), offMatrix(r, m, d, off)
				target := [][]float32{a.Data, b.Data, g.Data}[operand]
				for i := 5; i < len(target); i += 17 {
					target[i] = poison
				}
				return
			}
			run := func(ks kernels) []float32 {
				a, b, g, accA, accB := build()
				c := NewMatrix(n, m)
				ks.mulABt(c, a, b)
				ks.addOuterAtB(accA, g, b)
				ks.addOuterGtA(accB, g, a)
				out := append(c.Data, accA.Data...)
				out = append(out, accB.Data...)
				out = append(out, ks.dot(a.Row(0), b.Row(0)))
				ks.axpy(g.Data[5], a.Row(0), accB.Row(0))
				return append(out, accB.Row(0)...)
			}
			got, want := run(activeKernels), run(genericKernels)
			for i := range want {
				if class(got[i]) != class(want[i]) {
					t.Fatalf("poison %v in operand %d: output %d is %v on %s, %v on generic", poison, operand, i, got[i], Kernel(), want[i])
				}
			}
		}
	}
}

// TestKernelZeroWeightSkip pins the documented exception to contract (ii) on
// both paths: a zero weight is skipped where the driver sees it (an all-zero
// 2×4 tile, or outside whole tiles) and multiplied through where it shares a
// tile with a non-zero one.
func TestKernelZeroWeightSkip(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, ks := range bothPaths() {
		// 2×5 weights over five source rows, all of them +Inf: columns 0..3
		// are one whole tile, column 4 the ragged edge.
		src := NewMatrix(5, 3)
		for i := range src.Data {
			src.Data[i] = inf
		}
		g := NewMatrix(2, 5)
		dst := NewMatrix(2, 3)
		ks.addOuterAtB(dst, g, src)
		for _, v := range dst.Data {
			if v != 0 {
				t.Fatalf("%s: all-zero weights touched the destination: %v", ks.name, dst.Data)
			}
		}
		g.Row(1)[4] = 1 // edge: only row 1 takes source 4
		ks.addOuterAtB(dst, g, src)
		if dst.Row(0)[0] != 0 || dst.Row(1)[0] != inf {
			t.Fatalf("%s: edge weights (0, 1) over an Inf row gave %v, want 0 and +Inf", ks.name, dst.Data)
		}
		g.Row(0)[2] = 1 // tile: the seven zeros beside it now multiply Inf
		dst = NewMatrix(2, 3)
		ks.addOuterAtB(dst, g, src)
		if !math.IsNaN(float64(dst.Row(0)[0])) || !math.IsNaN(float64(dst.Row(1)[0])) {
			t.Fatalf("%s: zero weights inside a non-zero tile over Inf rows gave %v, want NaN", ks.name, dst.Data)
		}
	}
}

// FuzzKernelParity draws a shape, an allocation offset and a seed, and holds
// both paths to contract (i) and the assembly path to contract (ii).
func FuzzKernelParity(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), uint8(1), uint64(1))
	f.Add(uint8(50), uint8(100), uint8(64), uint8(7), uint64(2))
	f.Fuzz(func(t *testing.T, n, m, d, off uint8, seed uint64) {
		ni, mi, di, oi := int(n%64), int(m%64), int(d), 1+int(off%7)
		for _, ks := range bothPaths() {
			if err := checkBound(ks, ni, mi, di, oi, seed); err != nil {
				t.Fatalf("%s n=%d m=%d d=%d offset %d seed %d: %v", ks.name, ni, mi, di, oi, seed, err)
			}
		}
		if Kernel() != "generic" {
			if err := checkPositionIndependent(ni, mi, di, oi, seed); err != nil {
				t.Fatalf("n=%d m=%d d=%d offset %d seed %d: %v", ni, mi, di, oi, seed, err)
			}
		}
	})
}

// Benchmarks at the shapes the repository benchmark runs (n×m×d): the
// kg_mem training chunk, the social_ooc chunk, and the ragged IVF list scan
// of serve_topk. Each reports GFLOP/s on the assembly and the portable path;
// asm ÷ generic is the kernel speed-up.

func benchPaths(b *testing.B, flops int, run func(ks kernels)) {
	for _, path := range []struct {
		name string
		ks   kernels
	}{{"asm", activeKernels}, {"generic", genericKernels}} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "asm" && Kernel() == "generic" {
				b.Skip("this machine runs the generic kernels")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(path.ks)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

func BenchmarkMulABt(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, m, d int
	}{{"train_50x100x64", 50, 100, 64}, {"ooc_10x20x128", 10, 20, 128}, {"serve_13x18x32", 13, 18, 32}} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(3)
			am, bm, c := randMatrix(r, s.n, s.d), randMatrix(r, s.m, s.d), NewMatrix(s.n, s.m)
			benchPaths(b, 2*s.n*s.m*s.d, func(ks kernels) { ks.mulABt(c, am, bm) })
		})
	}
}

func BenchmarkAddOuterAtB(b *testing.B) {
	b.Run("train_50x100x64", func(b *testing.B) {
		r := rng.New(3)
		acc, g, bm := randMatrix(r, 50, 64), randMatrix(r, 50, 100), randMatrix(r, 100, 64)
		benchPaths(b, 2*50*100*64, func(ks kernels) { ks.addOuterAtB(acc, g, bm) })
	})
}

func BenchmarkAddOuterGtA(b *testing.B) {
	b.Run("train_50x100x64", func(b *testing.B) {
		r := rng.New(3)
		acc, g, am := randMatrix(r, 100, 64), randMatrix(r, 50, 100), randMatrix(r, 50, 64)
		benchPaths(b, 2*50*100*64, func(ks kernels) { ks.addOuterGtA(acc, g, am) })
	})
}
