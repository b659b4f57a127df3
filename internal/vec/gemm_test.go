package vec

import (
	"testing"

	"pbg/internal/rng"
)

// Naive reference implementations of the GEMM kernels. The shipped kernels
// are register-blocked; these goldens pin them to the row-times-row
// formulation across shapes that exercise every remainder path.

func mulABtNaive(c, a, b Matrix) {
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			ci[j] = Dot(ai, b.Row(j))
		}
	}
}

func addOuterAtBNaive(a, g, b Matrix) {
	for i := 0; i < a.Rows; i++ {
		gi := g.Row(i)
		ai := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			if gi[j] != 0 {
				Axpy(gi[j], b.Row(j), ai)
			}
		}
	}
}

func addOuterGtANaive(b, g, a Matrix) {
	for i := 0; i < g.Rows; i++ {
		gi := g.Row(i)
		ai := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			if gi[j] != 0 {
				Axpy(gi[j], ai, b.Row(j))
			}
		}
	}
}

func randMatrix(r *rng.RNG, rows, cols int) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	return m
}

// gemmShapes exercises full 4×4 tiles, every remainder combination, and the
// degenerate single-row/column cases.
var gemmShapes = []struct{ n, m, d int }{
	{1, 1, 1}, {1, 5, 3}, {3, 3, 7}, {4, 4, 8}, {5, 6, 4},
	{7, 9, 13}, {8, 8, 16}, {11, 4, 2}, {4, 11, 31}, {50, 150, 100},
}

func TestMulABtMatchesNaive(t *testing.T) {
	r := rng.New(7)
	for _, s := range gemmShapes {
		a := randMatrix(r, s.n, s.d)
		b := randMatrix(r, s.m, s.d)
		got := NewMatrix(s.n, s.m)
		want := NewMatrix(s.n, s.m)
		MulABt(got, a, b)
		mulABtNaive(want, a, b)
		for i := range got.Data {
			if !approxEq(got.Data[i], want.Data[i], eps) {
				t.Fatalf("shape %+v: C[%d] = %v, naive %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestAddOuterAtBMatchesNaive(t *testing.T) {
	r := rng.New(11)
	for _, s := range gemmShapes {
		g := randMatrix(r, s.n, s.m)
		// Zero some gradient entries so the masked-block skip path runs.
		for i := 0; i < len(g.Data); i += 3 {
			g.Data[i] = 0
		}
		b := randMatrix(r, s.m, s.d)
		got := randMatrix(r, s.n, s.d)
		want := MatrixFrom(append([]float32(nil), got.Data...), s.n, s.d)
		AddOuterAtB(got, g, b)
		addOuterAtBNaive(want, g, b)
		for i := range got.Data {
			if !approxEq(got.Data[i], want.Data[i], eps) {
				t.Fatalf("shape %+v: A[%d] = %v, naive %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// addOuterGtA is B += Gᵀ·A the way training computes it: G's non-zeros,
// scattered by AddRowsSparseT. There is no dense entry point for it.
func addOuterGtA(b, g, a Matrix) {
	AddRowsSparseT(b, sparseOf(g, 0), a)
}

func TestAddOuterGtAMatchesNaive(t *testing.T) {
	r := rng.New(13)
	for _, s := range gemmShapes {
		g := randMatrix(r, s.n, s.m)
		for i := 1; i < len(g.Data); i += 4 {
			g.Data[i] = 0
		}
		a := randMatrix(r, s.n, s.d)
		got := randMatrix(r, s.m, s.d)
		want := MatrixFrom(append([]float32(nil), got.Data...), s.m, s.d)
		addOuterGtA(got, g, a)
		addOuterGtANaive(want, g, a)
		for i := range got.Data {
			if !approxEq(got.Data[i], want.Data[i], eps) {
				t.Fatalf("shape %+v: B[%d] = %v, naive %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestGEMMAllZeroGradientSkips(t *testing.T) {
	// A fully-zero G must leave the accumulators untouched.
	g := NewMatrix(6, 7)
	b := NewMatrix(7, 5)
	a := NewMatrix(6, 5)
	for i := range b.Data {
		b.Data[i] = 1
	}
	orig := append([]float32(nil), a.Data...)
	AddOuterAtB(a, g, b)
	for i := range a.Data {
		if a.Data[i] != orig[i] {
			t.Fatal("zero gradient mutated A")
		}
	}
	addOuterGtA(b, g, a)
}

// Figure-3 shaped benchmarks: 50 positives × (50+2·100) candidates at d=100.

func benchGEMMMats() (a, b, g Matrix) {
	r := rng.New(3)
	a = randMatrix(r, 50, 100)
	b = randMatrix(r, 250, 100)
	g = randMatrix(r, 50, 250)
	return
}

func BenchmarkAddOuterAtB50x250x100(b *testing.B) {
	am, bm, gm := benchGEMMMats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddOuterAtB(am, gm, bm)
	}
}

func BenchmarkAddOuterGtA50x250x100(b *testing.B) {
	am, bm, gm := benchGEMMMats()
	sg := sparseOf(gm, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddRowsSparseT(bm, sg, am)
	}
}

func BenchmarkAddOuterAtBNaive50x250x100(b *testing.B) {
	am, bm, gm := benchGEMMMats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addOuterAtBNaive(am, gm, bm)
	}
}

func BenchmarkAddOuterGtANaive50x250x100(b *testing.B) {
	am, bm, gm := benchGEMMMats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addOuterGtANaive(bm, gm, am)
	}
}

func BenchmarkMulABtNaive50x250x100(b *testing.B) {
	am, bm, _ := benchGEMMMats()
	c := NewMatrix(50, 250)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulABtNaive(c, am, bm)
	}
}
