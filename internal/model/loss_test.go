package model

import (
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

var allLossNames = []string{"ranking", "logistic", "softmax"}

// lossBlock runs l over one score block and returns dL/dpos and the gradient
// block written out densely, plus the masked count. With nil IDs no candidate
// equals any positive's endpoint, so nothing is masked.
func lossBlock(l Loss, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, weight float32) (loss float64, gPos []float32, gNeg vec.Matrix, masked int) {
	if posIDs == nil {
		posIDs, candIDs = make([]int32, neg.Rows), make([]int32, neg.Cols)
		for i := range posIDs {
			posIDs[i] = -1
		}
	}
	var g vec.SparseRows
	gPos = make([]float32, len(pos))
	loss, masked = l.Compute(&g, gPos, pos, neg, posIDs, candIDs, weight)
	return loss, gPos, densify(&g, neg.Cols), masked
}

// densify writes a gradient block out as the dense matrix it stands for.
func densify(g *vec.SparseRows, cols int) vec.Matrix {
	m := vec.NewMatrix(g.Rows(), cols)
	for i := 0; i < g.Rows(); i++ {
		for k := g.Start[i]; k < g.Start[i+1]; k++ {
			m.Row(i)[g.Idx[k]] = g.W[k]
		}
	}
	return m
}

func TestNewLossUnknown(t *testing.T) {
	if _, err := NewLoss("hinge2", 0.1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRankingLossBasic(t *testing.T) {
	l := &RankingLoss{Margin: 1}
	pos := []float32{5}
	neg := vec.MatrixFrom([]float32{3, 4.5, 6}, 1, 3)
	got, gPos, gNeg, _ := lossBlock(l, pos, neg, nil, nil, 1)
	// Violations: 1-5+3=-1 (no), 1-5+4.5=0.5, 1-5+6=2 → loss 2.5.
	if !approx(float32(got), 2.5, 1e-5) {
		t.Fatalf("ranking loss = %v, want 2.5", got)
	}
	if gPos[0] != -2 {
		t.Fatalf("gPos = %v, want -2", gPos[0])
	}
	want := []float32{0, 1, 1}
	for i, w := range want {
		if gNeg.Data[i] != w {
			t.Fatalf("gNeg = %v", gNeg.Data)
		}
	}
}

func TestRankingLossPerfectSeparationZero(t *testing.T) {
	l := &RankingLoss{Margin: 0.1}
	pos := []float32{10}
	neg := vec.MatrixFrom([]float32{-10, -5}, 1, 2)
	got, gPos, gNeg, _ := lossBlock(l, pos, neg, nil, nil, 1)
	if got != 0 {
		t.Fatalf("separated loss = %v, want 0", got)
	}
	if gPos[0] != 0 || gNeg.Data[0] != 0 || gNeg.Data[1] != 0 {
		t.Fatal("gradients should be zero when separated")
	}
}

// TestMaskedNegativesSkipped: a candidate carrying the positive's own
// endpoint ID contributes neither loss nor gradient whatever its score, so
// the block equals the same block with that column removed.
func TestMaskedNegativesSkipped(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, name := range allLossNames {
		l, err := NewLoss(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pos := []float32{0.3}
		negSome := vec.MatrixFrom([]float32{0.1, 0.2}, 1, 2)
		l2, gPos2, _, _ := lossBlock(l, pos, negSome, nil, nil, 1)
		for _, hidden := range []float32{0.7, 1e30, inf, -inf, float32(math.NaN())} {
			negAll := vec.MatrixFrom([]float32{0.1, hidden, 0.2}, 1, 3)
			l1, gPos1, gNeg1, masked := lossBlock(l, pos, negAll, []int32{7}, []int32{1, 7, 2}, 1)
			if math.Abs(l1-l2) > 1e-6 || masked != 1 {
				t.Errorf("%s: loss %v with a masked %v (masked count %d), %v without the column", name, l1, hidden, masked, l2)
			}
			if gNeg1.Data[1] != 0 {
				t.Errorf("%s: masked entry received gradient %v", name, gNeg1.Data[1])
			}
			if !approx(gPos1[0], gPos2[0], 1e-5) {
				t.Errorf("%s: gPos differs under masking: %v vs %v", name, gPos1[0], gPos2[0])
			}
		}
	}
}

// TestHugeNegativeScoreIsAScore: the mask is an ID comparison, so a computed
// score at or below the old −1e30 sentinel (reachable with l2/squared_l2 on
// un-normalised rows) is a score in all three losses. Each loss is held to a
// float64 reference on a block with a −1e30 and a −Inf negative and a
// positive below both.
func TestHugeNegativeScoreIsAScore(t *testing.T) {
	const margin = 0.5
	negInf := math.Inf(-1)
	pos := []float32{-2e30}
	neg := vec.MatrixFrom([]float32{-1e30, float32(negInf), 4}, 1, 3)
	posIDs, candIDs := []int32{9}, []int32{1, 2, 9} // the finite score is the masked one
	p, n0 := float64(pos[0]), float64(neg.Data[0])
	logistic := func(x float64) float64 { return math.Log1p(math.Exp(-math.Abs(x))) - math.Min(x, 0) } // −log σ(x)
	want := map[string]struct {
		loss       float64
		gPos, gNeg float64 // dL/dpos and dL/d(the −1e30 negative)
	}{
		"ranking":  {margin - p + n0, -1, 1},
		"logistic": {logistic(p) + logistic(-n0) + logistic(math.Inf(1)), -1, 0},
		// lse over {p, −1e30, −Inf} is −1e30 to float64 precision.
		"softmax": {n0 - p, -1, 1},
	}
	for _, name := range allLossNames {
		l, _ := NewLoss(name, margin)
		loss, gPos, gNeg, masked := lossBlock(l, pos, neg, posIDs, candIDs, 1)
		w := want[name]
		if math.Abs(loss-w.loss) > 1e-6*math.Abs(w.loss) {
			t.Errorf("%s: loss %v, float64 reference %v", name, loss, w.loss)
		}
		if float64(gPos[0]) != w.gPos || float64(gNeg.Data[0]) != w.gNeg || gNeg.Data[1] != 0 || gNeg.Data[2] != 0 {
			t.Errorf("%s: gPos %v gNeg %v, want %v and [%v 0 0]", name, gPos, gNeg.Data, w.gPos, w.gNeg)
		}
		if masked != 1 {
			t.Errorf("%s: %d entries masked, want only the one whose ID matches", name, masked)
		}
	}
}

func TestWeightScalesLossAndGrads(t *testing.T) {
	for _, name := range allLossNames {
		l, _ := NewLoss(name, 0.5)
		pos := []float32{0.3, -0.2}
		neg := vec.MatrixFrom([]float32{0.1, 0.6, -0.3, 0.9}, 2, 2)
		l1, g1, gn1, _ := lossBlock(l, pos, neg, nil, nil, 1)
		l2, g2, gn2, _ := lossBlock(l, pos, neg, nil, nil, 2.5)
		if !approx(float32(l2), float32(l1*2.5), 1e-4) {
			t.Errorf("%s: weighted loss %v, want %v", name, l2, l1*2.5)
		}
		for i := range g1 {
			if !approx(g2[i], g1[i]*2.5, 1e-4) {
				t.Errorf("%s: weighted gPos[%d] %v, want %v", name, i, g2[i], g1[i]*2.5)
			}
		}
		for i := range gn1.Data {
			if !approx(gn2.Data[i], gn1.Data[i]*2.5, 1e-4) {
				t.Errorf("%s: weighted gNeg[%d] %v, want %v", name, i, gn2.Data[i], gn1.Data[i]*2.5)
			}
		}
	}
}

// FD check of dL/dpos and dL/dneg for every loss, choosing scores away from
// the ranking hinge's kink so central differences are valid.
func TestLossGradientsFiniteDifference(t *testing.T) {
	const c, n = 3, 4
	for _, name := range allLossNames {
		l, _ := NewLoss(name, 0.5)
		r := rng.New(31)
		pos := make([]float32, c)
		neg := vec.NewMatrix(c, n)
		// Keep every hinge argument at least 0.1 away from zero.
		for i := range pos {
			pos[i] = r.NormFloat32()
		}
		for i := range neg.Data {
			for {
				v := r.NormFloat32()
				ok := true
				for j := range pos {
					arg := 0.5 - pos[j] + v
					if abs32(arg) < 0.1 {
						ok = false
					}
				}
				if ok {
					neg.Data[i] = v
					break
				}
			}
		}
		_, gPos, gNeg, _ := lossBlock(l, pos, neg, nil, nil, 1.3)

		loss := func() float64 {
			v, _, _, _ := lossBlock(l, pos, neg, nil, nil, 1.3)
			return v
		}
		const h = 1e-3
		for i := range pos {
			old := pos[i]
			pos[i] = old + h
			lp := loss()
			pos[i] = old - h
			lm := loss()
			pos[i] = old
			fd := float32((lp - lm) / (2 * h))
			if !approx(fd, gPos[i], 2e-2) {
				t.Errorf("%s: gPos[%d] analytic %v vs fd %v", name, i, gPos[i], fd)
			}
		}
		for i := range neg.Data {
			old := neg.Data[i]
			neg.Data[i] = old + h
			lp := loss()
			neg.Data[i] = old - h
			lm := loss()
			neg.Data[i] = old
			fd := float32((lp - lm) / (2 * h))
			if !approx(fd, gNeg.Data[i], 2e-2) {
				t.Errorf("%s: gNeg[%d] analytic %v vs fd %v", name, i, gNeg.Data[i], fd)
			}
		}
	}
}

func TestSoftmaxLossGradSumsToZero(t *testing.T) {
	// For softmax, dL/dpos + Σ dL/dneg = 0 per positive (probabilities sum
	// to one).
	l := SoftmaxLoss{}
	r := rng.New(37)
	pos := make([]float32, 5)
	neg := vec.NewMatrix(5, 7)
	fill(r, pos)
	fill(r, neg.Data)
	_, gPos, gNeg, _ := lossBlock(l, pos, neg, nil, nil, 1)
	for i := 0; i < 5; i++ {
		s := gPos[i]
		for _, v := range gNeg.Row(i) {
			s += v
		}
		if abs32(s) > 1e-4 {
			t.Fatalf("softmax grads for positive %d sum to %v, want 0", i, s)
		}
	}
}

func TestLogisticLossAtZeroScores(t *testing.T) {
	l := LogisticLoss{}
	pos := []float32{0}
	neg := vec.MatrixFrom([]float32{0}, 1, 1)
	got, gPos, gNeg, _ := lossBlock(l, pos, neg, nil, nil, 1)
	want := 2 * math.Log(2) // −log σ(0) twice
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("logistic loss at 0 = %v, want %v", got, want)
	}
	if !approx(gPos[0], -0.5, 1e-5) || !approx(gNeg.Data[0], 0.5, 1e-5) {
		t.Fatalf("logistic grads %v / %v", gPos[0], gNeg.Data[0])
	}
}

func TestNewLossDefaultMargin(t *testing.T) {
	l, err := NewLoss("ranking", 0)
	if err != nil {
		t.Fatal(err)
	}
	rl := l.(*RankingLoss)
	if rl.Margin <= 0 {
		t.Fatalf("default margin = %v, want > 0", rl.Margin)
	}
}
