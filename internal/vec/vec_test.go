package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-4

// shrink maps arbitrary quick-generated float32s into [-2, 2] so the
// properties test algebra, not float32 overflow behaviour.
func shrink(xs []float32) []float32 {
	out := make([]float32, len(xs))
	for i, x := range xs {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		out[i] = float32(math.Mod(f, 2))
	}
	return out
}

func approxEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := float32(1)
	if m := float32(math.Max(math.Abs(float64(a)), math.Abs(float64(b)))); m > 1 {
		scale = m
	}
	return d <= tol*scale
}

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestDotCommutative(t *testing.T) {
	f := func(raw []float32) bool {
		xs := shrink(raw)
		ys := make([]float32, len(xs))
		for i := range ys {
			ys[i] = xs[len(xs)-1-i]
		}
		return approxEq(Dot(xs, ys), Dot(ys, xs), eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
	if got := Cosine(a, a); !approxEq(got, 1, eps) {
		t.Fatalf("self cosine = %v, want 1", got)
	}
	if got := Cosine(a, []float32{0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v, want 0", got)
	}
}

func TestCosineBounded(t *testing.T) {
	f := func(ar, br [8]float32) bool {
		a, b := shrink(ar[:]), shrink(br[:])
		c := Cosine(a, b)
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpy(t *testing.T) {
	y := []float32{1, 1, 1}
	Axpy(2, []float32{1, 2, 3}, y)
	want := []float32{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	y := []float32{1, 2}
	Axpy(0, []float32{9, 9}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("Axpy with alpha=0 modified y: %v", y)
	}
}

func TestAddSubMul(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 5}
	dst := make([]float32, 2)
	Add(dst, a, b)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, a, b)
	if dst[0] != -2 || dst[1] != -3 {
		t.Fatalf("Sub = %v", dst)
	}
	Mul(dst, a, b)
	if dst[0] != 3 || dst[1] != 10 {
		t.Fatalf("Mul = %v", dst)
	}
	MulAdd(dst, a, b)
	if dst[0] != 6 || dst[1] != 20 {
		t.Fatalf("MulAdd = %v", dst)
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	n := Normalize(x)
	if n != 5 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if !approxEq(Norm(x), 1, eps) {
		t.Fatalf("norm after Normalize = %v", Norm(x))
	}
	z := []float32{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize(zero) should return 0")
	}
}

func TestSquaredDistance(t *testing.T) {
	if got := SquaredDistance([]float32{1, 2}, []float32{4, 6}); got != 25 {
		t.Fatalf("SquaredDistance = %v, want 25", got)
	}
}

func TestMatrixRow(t *testing.T) {
	m := MatrixFrom([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := m.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 99
	if m.Data[3] != 99 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestMatrixFromBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatrixFrom([]float32{1, 2, 3}, 2, 2)
}

func TestMulABt(t *testing.T) {
	a := MatrixFrom([]float32{1, 0, 0, 1}, 2, 2) // identity rows
	b := MatrixFrom([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	c := NewMatrix(2, 3)
	MulABt(c, a, b)
	// c[i][j] = <a_i, b_j>
	want := []float32{1, 3, 5, 2, 4, 6}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MulABt[%d] = %v, want %v (full %v)", i, c.Data[i], w, c.Data)
		}
	}
}

// TestGEMMBackward verifies that AddOuterAtB and the Gᵀ·A product are the true
// gradients of MulABt by finite differences on a small random problem.
func TestGEMMBackward(t *testing.T) {
	n, m, d := 3, 4, 5
	seed := uint32(1)
	next := func() float32 {
		seed = seed*1664525 + 1013904223
		return float32(seed%1000)/500 - 1
	}
	a := NewMatrix(n, d)
	b := NewMatrix(m, d)
	for i := range a.Data {
		a.Data[i] = next()
	}
	for i := range b.Data {
		b.Data[i] = next()
	}
	g := NewMatrix(n, m)
	for i := range g.Data {
		g.Data[i] = next()
	}
	// Loss L = Σ g[i][j] * C[i][j]; dL/dA = G·B, dL/dB = Gᵀ·A.
	loss := func() float64 {
		c := NewMatrix(n, m)
		MulABt(c, a, b)
		var s float64
		for i := range c.Data {
			s += float64(g.Data[i] * c.Data[i])
		}
		return s
	}
	gradA := NewMatrix(n, d)
	gradB := NewMatrix(m, d)
	AddOuterAtB(gradA, g, b)
	addOuterGtA(gradB, g, a)
	const h = 1e-2
	for i := range a.Data {
		old := a.Data[i]
		a.Data[i] = old + h
		lp := loss()
		a.Data[i] = old - h
		lm := loss()
		a.Data[i] = old
		fd := float32((lp - lm) / (2 * h))
		if !approxEq(fd, gradA.Data[i], 1e-2) {
			t.Fatalf("gradA[%d]: analytic %v vs fd %v", i, gradA.Data[i], fd)
		}
	}
	for i := range b.Data {
		old := b.Data[i]
		b.Data[i] = old + h
		lp := loss()
		b.Data[i] = old - h
		lm := loss()
		b.Data[i] = old
		fd := float32((lp - lm) / (2 * h))
		if !approxEq(fd, gradB.Data[i], 1e-2) {
			t.Fatalf("gradB[%d]: analytic %v vs fd %v", i, gradB.Data[i], fd)
		}
	}
}

func TestMatVecAndMatTVec(t *testing.T) {
	a := MatrixFrom([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := make([]float32, 2)
	MatVec(y, a, []float32{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v", y)
	}
	z := make([]float32, 3)
	MatTVec(z, a, []float32{1, 1})
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("MatTVec = %v", z)
	}
}

func TestComplexMul(t *testing.T) {
	// (1+2i)*(3+4i) = 3+4i+6i-8 = -5+10i; layout [re..., im...]
	a := []float32{1, 2}
	b := []float32{3, 4}
	dst := make([]float32, 2)
	ComplexMul(dst, a, b)
	if dst[0] != -5 || dst[1] != 10 {
		t.Fatalf("ComplexMul = %v, want [-5 10]", dst)
	}
}

func TestComplexMulConjAdd(t *testing.T) {
	// (1+2i)*conj(3+4i) = (1+2i)*(3-4i) = 3-4i+6i+8 = 11+2i, added to 100+200i.
	a := []float32{1, 2}
	b := []float32{3, 4}
	dst := []float32{100, 200}
	ComplexMulConjAdd(dst, a, b)
	if dst[0] != 111 || dst[1] != 202 {
		t.Fatalf("ComplexMulConjAdd = %v, want [111 202]", dst)
	}
}

// Property: Re<a∘w, b> == Re<a, b∘conj(w)> — the adjoint identity the
// ComplEx backward pass relies on.
func TestComplexAdjointIdentity(t *testing.T) {
	f := func(ar, br, wr [8]float32) bool {
		a, b, w := shrink(ar[:]), shrink(br[:]), shrink(wr[:])
		lhsV := make([]float32, 8)
		rhsV := make([]float32, 8)
		ComplexMul(lhsV, a, w)
		ComplexMulConjAdd(rhsV, b, w)
		return approxEq(Dot(lhsV, b), Dot(a, rhsV), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSigmoid(t *testing.T) {
	if got := LogSigmoid(0); !approxEq(got, float32(math.Log(0.5)), eps) {
		t.Fatalf("LogSigmoid(0) = %v", got)
	}
	// Large negative input should not overflow to -Inf faster than x itself.
	if got := LogSigmoid(-100); !approxEq(got, -100, 1e-3) {
		t.Fatalf("LogSigmoid(-100) = %v", got)
	}
	if got := LogSigmoid(100); got > 0 || got < -1e-6 {
		t.Fatalf("LogSigmoid(100) = %v", got)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); !approxEq(got, 0.5, eps) {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); !approxEq(got, 1, eps) {
		t.Fatalf("Sigmoid(100) = %v", got)
	}
}

func TestLogSumExp(t *testing.T) {
	xs := []float32{1, 2, 3}
	want := float32(math.Log(math.Exp(1) + math.Exp(2) + math.Exp(3)))
	if got := LogSumExp(xs); !approxEq(got, want, eps) {
		t.Fatalf("LogSumExp = %v, want %v", got, want)
	}
	// Stability: huge values must not overflow.
	if got := LogSumExp([]float32{1000, 1000}); !approxEq(got, 1000+float32(math.Log(2)), eps) {
		t.Fatalf("LogSumExp large = %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(float64(got), -1) {
		t.Fatalf("LogSumExp(empty) = %v, want -Inf", got)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(xs [6]float32) bool {
		dst := make([]float32, 6)
		Softmax(dst, xs[:])
		var s float32
		for _, v := range dst {
			if v < 0 {
				return false
			}
			s += v
		}
		return approxEq(s, 1, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float32{1, 2, 3}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float32{1, float32(math.NaN())}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float32{float32(math.Inf(1))}) {
		t.Fatal("Inf not detected")
	}
}

func BenchmarkDot128(b *testing.B) {
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(i) * 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkMulABt50x250x100(b *testing.B) {
	// The Figure-3 workload: 50 positives scored against 250 candidates at
	// d=100 as one GEMM.
	a := NewMatrix(50, 100)
	bb := NewMatrix(250, 100)
	c := NewMatrix(50, 250)
	for i := range a.Data {
		a.Data[i] = float32(i % 7)
	}
	for i := range bb.Data {
		bb.Data[i] = float32(i % 5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulABt(c, a, bb)
	}
}
