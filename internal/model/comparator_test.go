package model

import (
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

var allComparatorNames = []string{"dot", "cos", "l2", "squared_l2"}

func TestNewComparatorUnknown(t *testing.T) {
	if _, err := NewComparator("hamming"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDotPairScores(t *testing.T) {
	a := vec.MatrixFrom([]float32{1, 0, 0, 1}, 2, 2)
	b := vec.MatrixFrom([]float32{2, 3, 4, 5}, 2, 2)
	out := make([]float32, 2)
	DotComparator{}.PairScores(out, a, b)
	if out[0] != 2 || out[1] != 5 {
		t.Fatalf("PairScores = %v", out)
	}
}

func TestCosScoresAreNormalized(t *testing.T) {
	cmp := CosComparator{}
	a := vec.MatrixFrom([]float32{3, 4}, 1, 2)
	b := vec.MatrixFrom([]float32{30, 40}, 1, 2)
	cmp.Prepare(a)
	cmp.Prepare(b)
	out := make([]float32, 1)
	cmp.PairScores(out, a, b)
	if !approx(out[0], 1, 1e-4) {
		t.Fatalf("cos of parallel vectors = %v, want 1", out[0])
	}
}

func TestSquaredL2CrossMatchesPair(t *testing.T) {
	r := rng.New(3)
	a := vec.NewMatrix(3, 5)
	b := vec.NewMatrix(3, 5)
	fill(r, a.Data)
	fill(r, b.Data)
	cmp := SquaredL2Comparator{}
	pair := make([]float32, 3)
	cmp.PairScores(pair, a, b)
	cross := vec.NewMatrix(3, 3)
	cmp.CrossScores(cross, a, b)
	for i := 0; i < 3; i++ {
		if !approx(pair[i], cross.Row(i)[i], 1e-3) {
			t.Fatalf("diag mismatch at %d: pair %v vs cross %v", i, pair[i], cross.Row(i)[i])
		}
	}
}

// TestCrossScoresRowsMatchesGathered pins, for every comparator, that scoring
// the rows idx of b where they lie is bit for bit CrossScores over a gathered
// copy of those rows (a repeated row, an odd count and a one-row query block
// included) — the property serving's in-place scan rests on.
func TestCrossScoresRowsMatchesGathered(t *testing.T) {
	r := rng.New(9)
	a, b := vec.NewMatrix(5, 7), vec.NewMatrix(11, 7)
	fill(r, a.Data)
	fill(r, b.Data)
	idx := []int32{10, 3, 3, 0, 7}
	gathered := vec.NewMatrix(len(idx), 7)
	for j, row := range idx {
		copy(gathered.Row(j), b.Row(int(row)))
	}
	for _, name := range allComparatorNames {
		cmp, err := NewComparator(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, a.Rows} {
			q := vec.MatrixFrom(a.Data[:n*7], n, 7)
			got, want := vec.NewMatrix(n, len(idx)), vec.NewMatrix(n, len(idx))
			cmp.CrossScoresRows(got, q, b, idx)
			cmp.CrossScores(want, q, gathered)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s, %d queries: element %d = %v in place, %v over the gathered rows", name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestCrossRawThenFinishIsCrossScores pins the two steps ScoreChunk splits
// CrossScores into, for every comparator: the raw block, with its leading
// columns read from the block taken the other way round (none, some, all),
// then the finish, is bit for bit CrossScores.
func TestCrossRawThenFinishIsCrossScores(t *testing.T) {
	r := rng.New(17)
	const n, m, d = 7, 12, 9
	a, b := vec.NewMatrix(n, d), vec.NewMatrix(m, d)
	fill(r, a.Data)
	fill(r, b.Data)
	for _, name := range allComparatorNames {
		cmp, err := NewComparator(name)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.NewMatrix(n, m)
		cmp.CrossScores(want, a, b)
		for _, k := range []int{0, 5, m} {
			other := vec.NewMatrix(k, n)
			cmp.CrossRaw(other, vec.MatrixFrom(b.Data[:k*d], k, d), a, vec.Matrix{})
			got := vec.NewMatrix(n, m)
			cmp.CrossRaw(got, a, b, other)
			cmp.FinishCross(got, a, b)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s, %d columns reused: element %d = %v, CrossScores %v", name, k, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSquaredL2CrossScoresAcrossNormChunks pins squared_l2's cross scores
// to 2·(A·Bᵀ)[i][j] − ‖a_i‖² − ‖b_j‖² element by element, bit for bit, over
// more columns than one chunk of column norms holds (600 = 256 + 256 + 88),
// dense and listed (B then being the gathered rows).
func TestSquaredL2CrossScoresAcrossNormChunks(t *testing.T) {
	r := rng.New(13)
	a, b := vec.NewMatrix(5, 9), vec.NewMatrix(600, 9)
	fill(r, a.Data)
	fill(r, b.Data)
	idx := make([]int32, 600)
	gathered := vec.NewMatrix(600, 9)
	for j := range idx {
		idx[j] = int32(599 - j)
		copy(gathered.Row(j), b.Row(599-j))
	}
	for _, list := range [][]int32{nil, idx} {
		got, prod := vec.NewMatrix(a.Rows, 600), vec.NewMatrix(a.Rows, 600)
		SquaredL2Comparator{}.CrossScoresRows(got, a, b, list)
		cols := b
		if list != nil {
			cols = gathered
		}
		vec.MulABt(prod, a, cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < 600; j++ {
				want := 2*prod.Row(i)[j] - vec.SumSquares(a.Row(i)) - vec.SumSquares(cols.Row(j))
				if math.Float32bits(got.Row(i)[j]) != math.Float32bits(want) {
					t.Fatalf("listed=%v (%d, %d): %v, want %v", list != nil, i, j, got.Row(i)[j], want)
				}
			}
		}
	}
}

func TestL2CrossMatchesPair(t *testing.T) {
	r := rng.New(5)
	a := vec.NewMatrix(4, 6)
	b := vec.NewMatrix(4, 6)
	fill(r, a.Data)
	fill(r, b.Data)
	cmp := L2Comparator{}
	pair := make([]float32, 4)
	cmp.PairScores(pair, a, b)
	cross := vec.NewMatrix(4, 4)
	cmp.CrossScores(cross, a, b)
	for i := 0; i < 4; i++ {
		if !approx(pair[i], cross.Row(i)[i], 1e-3) {
			t.Fatalf("diag mismatch at %d: %v vs %v", i, pair[i], cross.Row(i)[i])
		}
	}
	// All distances are non-positive scores.
	for _, v := range cross.Data {
		if v > 0 {
			t.Fatalf("l2 score %v > 0", v)
		}
	}
}

// comparatorLoss builds the scalar Σ gPair·pair + Σ gCross·cross for FD
// checking. It re-runs Prepare on fresh copies each call.
func comparatorLoss(cmp Comparator, aRaw, bRaw vec.Matrix, gPair []float32, gCross vec.Matrix) float64 {
	a := vec.NewMatrix(aRaw.Rows, aRaw.Cols)
	b := vec.NewMatrix(bRaw.Rows, bRaw.Cols)
	copy(a.Data, aRaw.Data)
	copy(b.Data, bRaw.Data)
	cmp.Prepare(a)
	cmp.Prepare(b)
	pair := make([]float32, a.Rows)
	cmp.PairScores(pair, a, b)
	cross := vec.NewMatrix(a.Rows, b.Rows)
	cmp.CrossScores(cross, a, b)
	var s float64
	for i := range pair {
		s += float64(gPair[i] * pair[i])
	}
	for i := range cross.Data {
		s += float64(gCross.Data[i] * cross.Data[i])
	}
	return s
}

// sparsify compresses a dense gradient block into the row lists
// CrossBackward takes.
func sparsify(m vec.Matrix) *vec.SparseRows {
	g := new(vec.SparseRows)
	g.Reset(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				g.Append(int32(j), v)
			}
		}
		g.EndRow()
	}
	return g
}

// TestComparatorGradients validates PairBackward + CrossBackward +
// UnprepareGrad against finite differences for every comparator.
func TestComparatorGradients(t *testing.T) {
	const n, m, d = 3, 4, 5
	for _, name := range allComparatorNames {
		cmp, err := NewComparator(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(11)
		aRaw := vec.NewMatrix(n, d)
		bRaw := vec.NewMatrix(n, d) // pair side needs equal rows
		fill(r, aRaw.Data)
		fill(r, bRaw.Data)
		gPair := make([]float32, n)
		gCross := vec.NewMatrix(n, n)
		fill(r, gPair)
		fill(r, gCross.Data)

		// Analytic gradients.
		a := vec.NewMatrix(n, d)
		b := vec.NewMatrix(n, d)
		copy(a.Data, aRaw.Data)
		copy(b.Data, bRaw.Data)
		sa := cmp.Prepare(a)
		sb := cmp.Prepare(b)
		pair := make([]float32, n)
		cmp.PairScores(pair, a, b)
		cross := vec.NewMatrix(n, n)
		cmp.CrossScores(cross, a, b)
		ga := vec.NewMatrix(n, d)
		gb := vec.NewMatrix(n, d)
		cmp.PairBackward(ga, gb, gPair, pair, a, b)
		cmp.CrossBackward(ga, gb, sparsify(gCross), cross, a, b, new(CrossScratch))
		cmp.UnprepareGrad(ga, a, sa)
		cmp.UnprepareGrad(gb, b, sb)

		const h = 1e-2
		check := func(raw vec.Matrix, grad vec.Matrix, label string) {
			for i := range raw.Data {
				old := raw.Data[i]
				raw.Data[i] = old + h
				lp := comparatorLoss(cmp, aRaw, bRaw, gPair, gCross)
				raw.Data[i] = old - h
				lm := comparatorLoss(cmp, aRaw, bRaw, gPair, gCross)
				raw.Data[i] = old
				fd := float32((lp - lm) / (2 * h))
				if !approx(fd, grad.Data[i], 5e-2) {
					t.Errorf("%s: %s[%d] analytic %v vs fd %v", name, label, i, grad.Data[i], fd)
				}
			}
		}
		check(aRaw, ga, "gA")
		check(bRaw, gb, "gB")
	}
}

// Cosine gradients must be orthogonal to the embedding direction: moving
// along x cannot change cos(x, y).
func TestCosGradOrthogonalToInput(t *testing.T) {
	cmp := CosComparator{}
	r := rng.New(21)
	aRaw := vec.NewMatrix(2, 6)
	bRaw := vec.NewMatrix(2, 6)
	fill(r, aRaw.Data)
	fill(r, bRaw.Data)
	a := vec.NewMatrix(2, 6)
	copy(a.Data, aRaw.Data)
	b := vec.NewMatrix(2, 6)
	copy(b.Data, bRaw.Data)
	sa := cmp.Prepare(a)
	cmp.Prepare(b)
	pair := make([]float32, 2)
	cmp.PairScores(pair, a, b)
	ga := vec.NewMatrix(2, 6)
	gb := vec.NewMatrix(2, 6)
	gPair := []float32{1, 1}
	cmp.PairBackward(ga, gb, gPair, pair, a, b)
	cmp.UnprepareGrad(ga, a, sa)
	for i := 0; i < 2; i++ {
		dot := vec.Dot(ga.Row(i), aRaw.Row(i))
		if math.Abs(float64(dot)) > 1e-3 {
			t.Fatalf("cos gradient not orthogonal to input: row %d dot %v", i, dot)
		}
	}
}

func TestCosZeroVectorNoNaN(t *testing.T) {
	cmp := CosComparator{}
	a := vec.NewMatrix(1, 4) // zero row
	b := vec.MatrixFrom([]float32{1, 2, 3, 4}, 1, 4)
	sa := cmp.Prepare(a)
	cmp.Prepare(b)
	out := make([]float32, 1)
	cmp.PairScores(out, a, b)
	if out[0] != 0 {
		t.Fatalf("cos with zero vector = %v, want 0", out[0])
	}
	ga := vec.NewMatrix(1, 4)
	gb := vec.NewMatrix(1, 4)
	cmp.PairBackward(ga, gb, []float32{1}, out, a, b)
	cmp.UnprepareGrad(ga, a, sa)
	if !vec.AllFinite(ga.Data) {
		t.Fatalf("non-finite gradient for zero vector: %v", ga.Data)
	}
	for _, v := range ga.Data {
		if v != 0 {
			t.Fatalf("zero row should get zero grad, got %v", ga.Data)
		}
	}
}

func TestL2IdenticalVectorsNoNaN(t *testing.T) {
	cmp := L2Comparator{}
	a := vec.MatrixFrom([]float32{1, 2}, 1, 2)
	b := vec.MatrixFrom([]float32{1, 2}, 1, 2)
	out := make([]float32, 1)
	cmp.PairScores(out, a, b)
	if math.IsNaN(float64(out[0])) {
		t.Fatal("NaN score for identical vectors")
	}
	ga := vec.NewMatrix(1, 2)
	gb := vec.NewMatrix(1, 2)
	cmp.PairBackward(ga, gb, []float32{1}, out, a, b)
	if !vec.AllFinite(ga.Data) || !vec.AllFinite(gb.Data) {
		t.Fatal("non-finite gradient at zero distance")
	}
}
