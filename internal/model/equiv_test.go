package model

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/vec"
)

// The sparse gradient path against the arithmetic it replaced, written
// plainly: the induced-positive mask as an ID comparison, a dense per-loss
// gradient block G, and both backward products as ascending chains of
// vec.Axpy with zero coefficients skipped. AddRowsSparse is bitwise that
// chain and the losses emit exactly G's non-zeros in order, so every
// gradient must match bit for bit; only the loss value, whose summation
// order changed, is compared to a tolerance. One deviation is pinned with a
// tolerance of its own: the ranking loss now subtracts k·weight from gPos in
// one rounding where this arithmetic subtracts weight k times, which is the
// same number only while k·weight is exact (RelWeight 1, or any power of two).

// denseLoss is the pre-sparse loss pass: it fills the dense block gNeg (zero
// where masked), accumulates gPos, and returns the loss and the number of
// unmasked entries.
func denseLoss(l Loss, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, gPos []float32, gNeg vec.Matrix, weight float32) (total float64, unmasked int) {
	for i, p := range pos {
		row, grow := neg.Row(i), gNeg.Row(i)
		masked := func(j int) bool { return candIDs[j] == posIDs[i] }
		switch l := l.(type) {
		case *RankingLoss:
			for j, n := range row {
				grow[j] = 0
				if masked(j) {
					continue
				}
				unmasked++
				if viol := l.Margin - p + n; viol > 0 {
					total += float64(viol) * float64(weight)
					gPos[i] -= weight
					grow[j] = weight
				}
			}
		case LogisticLoss:
			total += -float64(vec.LogSigmoid(p)) * float64(weight)
			gPos[i] += (vec.Sigmoid(p) - 1) * weight
			for j, n := range row {
				grow[j] = 0
				if masked(j) {
					continue
				}
				unmasked++
				total += -float64(vec.LogSigmoid(-n)) * float64(weight)
				grow[j] = vec.Sigmoid(n) * weight
			}
		case SoftmaxLoss:
			m := p
			for j, n := range row {
				if !masked(j) && n > m {
					m = n
				}
			}
			var sum float64
			for j, n := range row {
				if !masked(j) {
					sum += math.Exp(float64(n - m))
				}
			}
			sum += math.Exp(float64(p - m))
			lse := float64(m) + math.Log(sum)
			total += (lse - float64(p)) * float64(weight)
			gPos[i] += (float32(math.Exp(float64(p)-lse)) - 1) * weight
			for j, n := range row {
				grow[j] = 0
				if masked(j) {
					continue
				}
				unmasked++
				grow[j] = float32(math.Exp(float64(n)-lse)) * weight
			}
		}
	}
	return total, unmasked
}

// denseSide is one side of a chunk scored on its own: denseLoss, then for
// the dot-product comparators Axpy chains (their CrossBackward is exactly the
// two products). The distance comparators' CrossBackward adds row sums and
// rescales, arithmetic of their own that TestComparatorGradients holds to
// finite differences; here it is handed G's non-zeros in order, so what the
// comparison pins for them is the sharing between the two sides.
func denseSide(s *Scorer, g *ChunkGrad, q, cand vec.Matrix, posIDs, candIDs []int32, weight float32) (gq, gcand vec.Matrix) {
	c, cu, d := q.Rows, cand.Rows, s.Dim
	stateQ, stateC := s.Cmp.Prepare(q), s.Cmp.Prepare(cand)
	pos := make([]float32, c)
	top := subMat(cand, c, d)
	s.Cmp.PairScores(pos, q, top)
	neg := vec.NewMatrix(c, cu)
	s.Cmp.CrossScoresRows(neg, q, cand, nil)
	gPos, gNeg := make([]float32, c), vec.NewMatrix(c, cu)
	loss, unmasked := denseLoss(s.Loss, pos, neg, posIDs, candIDs, gPos, gNeg, weight)
	g.Loss += loss
	g.NegCount += unmasked
	gq, gcand = vec.NewMatrix(c, d), vec.NewMatrix(cu, d)
	s.Cmp.PairBackward(gq, subMat(gcand, c, d), gPos, pos, q, top)
	switch s.Cmp.(type) {
	case DotComparator, CosComparator:
		for i := 0; i < c; i++ {
			for j := 0; j < cu; j++ {
				vec.Axpy(gNeg.Row(i)[j], cand.Row(j), gq.Row(i)) // Axpy skips a zero coefficient
			}
		}
		for j := 0; j < cu; j++ {
			for i := 0; i < c; i++ {
				vec.Axpy(gNeg.Row(i)[j], q.Row(i), gcand.Row(j))
			}
		}
	default:
		s.Cmp.CrossBackward(gq, gcand, sparsify(gNeg), neg, q, cand, new(CrossScratch))
	}
	s.Cmp.UnprepareGrad(gq, q, stateQ)
	s.Cmp.UnprepareGrad(gcand, cand, stateC)
	return gq, gcand
}

// denseScoreChunk is ScoreChunk over denseSide, on fresh buffers.
func denseScoreChunk(s *Scorer, in *ChunkInput) *ChunkGrad {
	c, u, d := in.Src.Rows, in.USrc.Rows, s.Dim
	cu := c + u
	g := s.NewChunkGrad(c, u)
	stack := func(top, rest vec.Matrix) vec.Matrix {
		return vec.MatrixFrom(append(append([]float32(nil), top.Data...), rest.Data...), cu, d)
	}
	ids := func(top, rest []int32) []int32 { return append(append([]int32(nil), top...), rest...) }
	apply := func(x vec.Matrix, params []float32) vec.Matrix {
		out := vec.NewMatrix(x.Rows, d)
		for i := 0; i < x.Rows; i++ {
			s.Op.Apply(out.Row(i), x.Row(i), params)
		}
		return out
	}

	gq, gcand := denseSide(s, g, apply(in.Src, in.RelFwd), stack(in.Dst, in.UDst), in.DstIDs, ids(in.DstIDs, in.UDstIDs), in.RelWeight)
	vec.Axpy(1, gcand.Data[:c*d], g.Dst.Data)
	vec.Axpy(1, gcand.Data[c*d:], g.UDst.Data)
	for i := 0; i < c; i++ {
		s.Op.Backward(g.Src.Row(i), g.RelFwd, in.Src.Row(i), in.RelFwd, gq.Row(i))
	}

	candS, candIDs := stack(in.Src, in.USrc), ids(in.SrcIDs, in.USrcIDs)
	if s.Reciprocal {
		gq, gcand = denseSide(s, g, apply(in.Dst, in.RelRev), candS, in.SrcIDs, candIDs, in.RelWeight)
		vec.Axpy(1, gcand.Data[:c*d], g.Src.Data)
		vec.Axpy(1, gcand.Data[c*d:], g.USrc.Data)
		for i := 0; i < c; i++ {
			s.Op.Backward(g.Dst.Row(i), g.RelRev, in.Dst.Row(i), in.RelRev, gq.Row(i))
		}
		return g
	}
	pd := vec.MatrixFrom(append([]float32(nil), in.Dst.Data...), c, d)
	gq, gcand = denseSide(s, g, pd, apply(candS, in.RelFwd), in.SrcIDs, candIDs, in.RelWeight)
	vec.Axpy(1, gq.Data, g.Dst.Data)
	for k := 0; k < cu; k++ {
		target, row := g.Src, k
		if k >= c {
			target, row = g.USrc, k-c
		}
		s.Op.Backward(target.Row(row), g.RelFwd, candS.Row(k), in.RelFwd, gcand.Row(k))
	}
	return g
}

// TestScoreChunkMatchesDenseArithmetic holds ScoreChunk, which computes the
// pieces the two sides of a chunk share once, to the two sides computed
// apart, for every operator and comparator: bit for bit (the distance
// comparators and the translation, diagonal and linear operators need no
// tolerance of their own).
func TestScoreChunkMatchesDenseArithmetic(t *testing.T) {
	for _, opName := range []string{"identity", "complex_diagonal", "translation", "diagonal", "linear"} {
		for _, cmpName := range allComparatorNames {
			for _, lossName := range allLossNames {
				for _, recip := range []bool{false, true} {
					for _, weight := range []float32{1, 1.3} {
						checkAgainstDense(t, opName, cmpName, lossName, recip, weight)
					}
				}
			}
		}
	}
}

func checkAgainstDense(t *testing.T, opName, cmpName, lossName string, recip bool, weight float32) {
	const c, u, dim = 13, 11, 10
	name := fmt.Sprintf("%s/%s/%s/recip=%v/weight=%v", opName, cmpName, lossName, recip, weight)
	s, err := NewScorer(dim, opName, cmpName, lossName, 0.1, recip)
	if err != nil {
		t.Fatal(err)
	}
	in := makeChunk(s, c, u, 53)
	in.RelWeight = weight
	// Duplicate IDs within and across the positive and the sampled rows, so
	// the mask is more than the self column.
	for i := range in.SrcIDs {
		in.SrcIDs[i], in.DstIDs[i] = int32(i%5), int32(i%4)
	}
	for i := range in.USrcIDs {
		in.USrcIDs[i], in.UDstIDs[i] = int32(i%6), int32(i%3)
	}
	want := denseScoreChunk(s, in)
	for _, layout := range []struct {
		name string
		in   *ChunkInput
	}{{"apart", in}, {"blocks", asBlocks(in)}} {
		got := s.NewChunkGrad(c, u)
		s.ScoreChunk(s.NewWorkspace(c, u), layout.in, got)
		compareToDense(t, name+"/"+layout.name, got, want, lossName != "ranking" || weight == 1)
		if lossName != "ranking" && got.ActiveNegs != got.NegCount {
			t.Errorf("%s: %d of %d negatives active; a dense loss emits every unmasked entry", name, got.ActiveNegs, got.NegCount)
		}
	}
}

// asBlocks copies a chunk into the trainer's layout: each side's rows, and
// its IDs, in one backing array, positives first, which ScoreChunk reads in
// place.
func asBlocks(in *ChunkInput) *ChunkInput {
	out := *in
	rows := func(top, rest vec.Matrix) (vec.Matrix, vec.Matrix) {
		data := append(append([]float32(nil), top.Data...), rest.Data...)
		return vec.MatrixFrom(data[:len(top.Data)], top.Rows, top.Cols), vec.MatrixFrom(data[len(top.Data):], rest.Rows, rest.Cols)
	}
	ids := func(top, rest []int32) ([]int32, []int32) {
		all := append(append([]int32(nil), top...), rest...)
		return all[:len(top)], all[len(top):]
	}
	out.Src, out.USrc = rows(in.Src, in.USrc)
	out.Dst, out.UDst = rows(in.Dst, in.UDst)
	out.SrcIDs, out.USrcIDs = ids(in.SrcIDs, in.USrcIDs)
	out.DstIDs, out.UDstIDs = ids(in.DstIDs, in.UDstIDs)
	return &out
}

func compareToDense(t *testing.T, name string, got, want *ChunkGrad, exact bool) {
	t.Helper()
	// Everything is bitwise except what gPos reaches under the ranking loss
	// at an inexact weight: k ≤ 23 subtractions against one product differ
	// by a few ulps of k·weight, held here to 2⁻²⁰ of the block's largest
	// entry.
	for _, part := range []struct {
		label     string
		got, want []float32
	}{
		{"gSrc", got.Src.Data, want.Src.Data}, {"gDst", got.Dst.Data, want.Dst.Data},
		{"gUSrc", got.USrc.Data, want.USrc.Data}, {"gUDst", got.UDst.Data, want.UDst.Data},
		{"gRelFwd", got.RelFwd, want.RelFwd}, {"gRelRev", got.RelRev, want.RelRev},
	} {
		var tol float64
		if !exact {
			for _, w := range part.want {
				tol = math.Max(tol, math.Abs(float64(w))/(1<<20))
			}
		}
		for i := range part.want {
			if math.Float32bits(part.got[i]) != math.Float32bits(part.want[i]) &&
				!(math.Abs(float64(part.got[i])-float64(part.want[i])) <= tol) {
				t.Fatalf("%s: %s[%d] = %v, dense arithmetic gives %v (tolerance %v)", name, part.label, i, part.got[i], part.want[i], tol)
			}
		}
	}
	if got.NegCount != want.NegCount {
		t.Errorf("%s: NegCount %d, want %d", name, got.NegCount, want.NegCount)
	}
	if math.Abs(got.Loss-want.Loss) > 1e-6*math.Abs(want.Loss) {
		t.Errorf("%s: loss %v, dense arithmetic gives %v", name, got.Loss, want.Loss)
	}
}
