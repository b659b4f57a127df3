package model

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// makeChunk builds a random chunk with C positives and U candidates, all
// entity IDs distinct so only the self column gets masked.
func makeChunk(s *Scorer, c, u int, seed uint64) *ChunkInput {
	r := rng.New(seed)
	d := s.Dim
	in := &ChunkInput{
		Src:       vec.NewMatrix(c, d),
		Dst:       vec.NewMatrix(c, d),
		USrc:      vec.NewMatrix(u, d),
		UDst:      vec.NewMatrix(u, d),
		SrcIDs:    make([]int32, c),
		DstIDs:    make([]int32, c),
		USrcIDs:   make([]int32, u),
		UDstIDs:   make([]int32, u),
		RelWeight: 1,
	}
	fill(r, in.Src.Data)
	fill(r, in.Dst.Data)
	fill(r, in.USrc.Data)
	fill(r, in.UDst.Data)
	id := int32(0)
	for i := range in.SrcIDs {
		in.SrcIDs[i] = id
		id++
	}
	for i := range in.DstIDs {
		in.DstIDs[i] = id
		id++
	}
	for i := range in.USrcIDs {
		in.USrcIDs[i] = id
		id++
	}
	for i := range in.UDstIDs {
		in.UDstIDs[i] = id
		id++
	}
	n := s.Op.ParamCount(d)
	params := make([]float32, s.RelParamCount())
	fill(r, params)
	if n > 0 {
		in.RelFwd = params[:n]
		if s.Reciprocal {
			in.RelRev = params[n:]
		}
	}
	return in
}

func chunkLoss(s *Scorer, ws *Workspace, in *ChunkInput, grad *ChunkGrad) float64 {
	s.ScoreChunk(ws, in, grad)
	return grad.Loss
}

// TestScorerGradientsAllCombos is the central correctness test for the
// no-autograd port: for every operator × comparator × reciprocal mode (with
// the smooth losses; the piecewise-linear ranking loss is FD-checked at the
// loss level), the analytic chunk gradients must match finite differences of
// the total chunk loss with respect to every raw input.
func TestScorerGradientsAllCombos(t *testing.T) {
	const c, u = 3, 2
	dim := 6
	for _, opName := range allOperatorNames {
		for _, cmpName := range allComparatorNames {
			for _, lossName := range []string{"logistic", "softmax"} {
				for _, recip := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/recip=%v", opName, cmpName, lossName, recip)
					s, err := NewScorer(dim, opName, cmpName, lossName, 0.1, recip)
					if err != nil {
						t.Fatal(err)
					}
					in := makeChunk(s, c, u, 97)
					ws := s.NewWorkspace(c, u)
					grad := s.NewChunkGrad(c, u)
					s.ScoreChunk(ws, in, grad)
					base := grad.Loss
					if math.IsNaN(base) || math.IsInf(base, 0) {
						t.Fatalf("%s: non-finite loss %v", name, base)
					}

					scratch := s.NewChunkGrad(c, u)
					const h = 1e-2
					checkFD := func(data []float32, analytic []float32, label string) {
						for i := range data {
							old := data[i]
							data[i] = old + h
							lp := chunkLoss(s, ws, in, scratch)
							data[i] = old - h
							lm := chunkLoss(s, ws, in, scratch)
							data[i] = old
							fd := float32((lp - lm) / (2 * h))
							if !approx(fd, analytic[i], 8e-2) {
								t.Errorf("%s: %s[%d] analytic %v vs fd %v", name, label, i, analytic[i], fd)
							}
						}
					}
					checkFD(in.Src.Data, grad.Src.Data, "gSrc")
					checkFD(in.Dst.Data, grad.Dst.Data, "gDst")
					checkFD(in.USrc.Data, grad.USrc.Data, "gUSrc")
					checkFD(in.UDst.Data, grad.UDst.Data, "gUDst")
					if in.RelFwd != nil {
						checkFD(in.RelFwd, grad.RelFwd, "gRelFwd")
					}
					if in.RelRev != nil {
						checkFD(in.RelRev, grad.RelRev, "gRelRev")
					}
					if t.Failed() {
						t.Fatalf("%s: gradient check failed", name)
					}
				}
			}
		}
	}
}

// naiveChunkLoss recomputes the chunk loss by scoring each (positive,
// candidate) pair one at a time with Score/naive transforms — the reference
// the Figure-3 batched construction must agree with.
func naiveChunkLoss(s *Scorer, in *ChunkInput) float64 {
	c := in.Src.Rows
	u := in.USrc.Rows
	d := s.Dim
	cu := c + u
	score := func(src, dst, params []float32, reverse bool) float32 {
		t := make([]float32, d)
		var a, b vec.Matrix
		if reverse {
			s.Op.Apply(t, dst, params)
			sc := append([]float32(nil), src...)
			a = vec.MatrixFrom(t, 1, d)
			b = vec.MatrixFrom(sc, 1, d)
		} else {
			s.Op.Apply(t, src, params)
			dc := append([]float32(nil), dst...)
			a = vec.MatrixFrom(t, 1, d)
			b = vec.MatrixFrom(dc, 1, d)
		}
		s.Cmp.Prepare(a)
		s.Cmp.Prepare(b)
		out := make([]float32, 1)
		s.Cmp.PairScores(out, a, b)
		return out[0]
	}
	var total float64
	// Destination corruption.
	for i := 0; i < c; i++ {
		pos := score(in.Src.Row(i), in.Dst.Row(i), in.RelFwd, false)
		neg := vec.NewMatrix(1, cu)
		cids := make([]int32, cu)
		for j := 0; j < cu; j++ {
			var cand []float32
			if j < c {
				cand, cids[j] = in.Dst.Row(j), in.DstIDs[j]
			} else {
				cand, cids[j] = in.UDst.Row(j-c), in.UDstIDs[j-c]
			}
			neg.Data[j] = score(in.Src.Row(i), cand, in.RelFwd, false)
		}
		loss, _ := s.Loss.Compute(new(vec.SparseRows), make([]float32, 1), []float32{pos}, neg, in.DstIDs[i:i+1], cids, in.RelWeight)
		total += loss
	}
	// Source corruption.
	for i := 0; i < c; i++ {
		var pos float32
		if s.Reciprocal {
			pos = score(in.Src.Row(i), in.Dst.Row(i), in.RelRev, true)
		} else {
			pos = score(in.Src.Row(i), in.Dst.Row(i), in.RelFwd, false)
		}
		neg := vec.NewMatrix(1, cu)
		cids := make([]int32, cu)
		for j := 0; j < cu; j++ {
			var cand []float32
			if j < c {
				cand, cids[j] = in.Src.Row(j), in.SrcIDs[j]
			} else {
				cand, cids[j] = in.USrc.Row(j-c), in.USrcIDs[j-c]
			}
			if s.Reciprocal {
				neg.Data[j] = score(cand, in.Dst.Row(i), in.RelRev, true)
			} else {
				neg.Data[j] = score(cand, in.Dst.Row(i), in.RelFwd, false)
			}
		}
		loss, _ := s.Loss.Compute(new(vec.SparseRows), make([]float32, 1), []float32{pos}, neg, in.SrcIDs[i:i+1], cids, in.RelWeight)
		total += loss
	}
	return total
}

// TestBatchedMatchesNaive: the batched GEMM construction of Figure 3 must
// produce exactly the same loss as the naive per-pair loop.
func TestBatchedMatchesNaive(t *testing.T) {
	for _, opName := range []string{"identity", "translation", "diagonal", "complex_diagonal"} {
		for _, cmpName := range allComparatorNames {
			for _, recip := range []bool{false, true} {
				s, err := NewScorer(6, opName, cmpName, "logistic", 0.1, recip)
				if err != nil {
					t.Fatal(err)
				}
				in := makeChunk(s, 4, 3, 5)
				ws := s.NewWorkspace(4, 3)
				grad := s.NewChunkGrad(4, 3)
				s.ScoreChunk(ws, in, grad)
				naive := naiveChunkLoss(s, in)
				if math.Abs(grad.Loss-naive) > 1e-3*(1+math.Abs(naive)) {
					t.Errorf("%s/%s/recip=%v: batched %v vs naive %v", opName, cmpName, recip, grad.Loss, naive)
				}
			}
		}
	}
}

// TestFigure3NegativeCount reproduces the arithmetic from §4.3: 50 positives
// with 50 in-chunk + 50 uniform candidates per side yield 50·200−100 = 9900
// negatives.
func TestFigure3NegativeCount(t *testing.T) {
	s, err := NewScorer(4, "identity", "dot", "ranking", 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	in := makeChunk(s, 50, 50, 13)
	ws := s.NewWorkspace(50, 50)
	grad := s.NewChunkGrad(50, 50)
	s.ScoreChunk(ws, in, grad)
	if grad.NegCount != 9900 {
		t.Fatalf("negative count = %d, want 9900", grad.NegCount)
	}
}

// countingComparator counts the score cells its comparator computes: cross
// cells multiplied (a CrossRaw reads t.Rows columns it does not multiply),
// and pair scores.
type countingComparator struct {
	Comparator
	cells, pairs int
}

func (c *countingComparator) CrossRaw(out, a, b, t vec.Matrix) {
	c.cells += out.Rows * (out.Cols - t.Rows)
	c.Comparator.CrossRaw(out, a, b, t)
}

func (c *countingComparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	c.cells += len(out.Data)
	c.Comparator.CrossScoresRows(out, a, b, idx)
}

func (c *countingComparator) PairScores(out []float32, a, b vec.Matrix) {
	c.pairs += len(out)
	c.Comparator.PairScores(out, a, b)
}

// countingOperator counts the rows its operator transforms.
type countingOperator struct {
	Operator
	applies int
}

func (o *countingOperator) Apply(dst, x, params []float32) {
	o.applies++
	o.Operator.Apply(dst, x, params)
}

// TestScoreChunkWorkOnce pins the work of one chunk, not just its result:
// without reciprocal relations the sources are transformed once (C+U
// applies), the C pair scores and the C×C block of positives against
// positives are computed once for both sides, and the source side multiplies
// only its C×U remainder — C·(C+U) + U·C cells. Reciprocal mode's sides use
// different parameters and share nothing: 2C applies, 2C pair scores and two
// full blocks, 2·C·(C+U) cells.
func TestScoreChunkWorkOnce(t *testing.T) {
	const c, u = 13, 11
	for _, cmpName := range allComparatorNames {
		for _, reciprocal := range []bool{false, true} {
			s, err := NewScorer(8, "complex_diagonal", cmpName, "ranking", 0.1, reciprocal)
			if err != nil {
				t.Fatal(err)
			}
			cmp, op := &countingComparator{Comparator: s.Cmp}, &countingOperator{Operator: s.Op}
			s.Cmp, s.Op = cmp, op
			in := makeChunk(s, c, u, 23)
			s.ScoreChunk(s.NewWorkspace(c, u), in, s.NewChunkGrad(c, u))
			cells, pairs, applies := c*(c+u)+u*c, c, c+u
			if reciprocal {
				cells, pairs, applies = 2*c*(c+u), 2*c, 2*c
			}
			if cmp.cells != cells || cmp.pairs != pairs || op.applies != applies {
				t.Errorf("%s reciprocal=%v: %d cells, %d pair scores, %d applies; want %d, %d, %d",
					cmpName, reciprocal, cmp.cells, cmp.pairs, op.applies, cells, pairs, applies)
			}
		}
	}
}

// TestJoinedReadsBlocksInPlace pins the gather contract: rows (or IDs) that
// continue where the first part ends in one backing array come back as that
// array, with no copy; parts apart, or a caller that must not share them
// (cos normalises in place), get a copy.
func TestJoinedReadsBlocksInPlace(t *testing.T) {
	block := []int32{1, 2, 3, 4, 5}
	buf := make([]int32, 5)
	if got := joined(buf, block[:2], block[2:], true); &got[0] != &block[0] || len(got) != 5 {
		t.Errorf("adjacent parts were copied")
	}
	for name, got := range map[string][]int32{
		"apart":      joined(buf, block[:2], []int32{3, 4, 5}, true),
		"not shared": joined(buf, block[:2], block[2:], false),
	} {
		if &got[0] != &buf[0] || fmt.Sprint(got) != "[1 2 3 4 5]" {
			t.Errorf("%s: got %v, want a copy [1 2 3 4 5] in the buffer", name, got)
		}
	}
}

// Duplicate entity IDs among candidates must be masked as induced positives.
func TestSameIDCandidatesMasked(t *testing.T) {
	s, _ := NewScorer(4, "identity", "dot", "ranking", 0.1, false)
	in := makeChunk(s, 2, 1, 17)
	// Make uniform dest candidate 0 carry the same entity as positive 0's
	// destination: scoring positive 0 against it would be a false negative.
	in.UDstIDs[0] = in.DstIDs[0]
	ws := s.NewWorkspace(2, 1)
	grad := s.NewChunkGrad(2, 1)
	s.ScoreChunk(ws, in, grad)
	// Full count would be 2·(2·(2+1) − 2) = 8 per construction: per side
	// 2×3 entries minus 2 self-masks = 4, two sides = 8. The duplicate ID
	// masks one more entry.
	if grad.NegCount != 7 {
		t.Fatalf("negative count = %d, want 7", grad.NegCount)
	}
}

// TestNegCountIsUnmaskedEntries pins NegCount to its definition — the
// entries of both C×(C+U) score blocks whose candidate is neither the edge
// itself nor an entity equal to its true endpoint — on a chunk dense with
// duplicate ids, where an entry can qualify for masking twice (self column
// and same id) and must still be subtracted once.
func TestNegCountIsUnmaskedEntries(t *testing.T) {
	for _, reciprocal := range []bool{false, true} {
		s, err := NewScorer(4, "identity", "dot", "ranking", 0.1, reciprocal)
		if err != nil {
			t.Fatal(err)
		}
		const c, u = 9, 7
		in := makeChunk(s, c, u, 19)
		for i := range in.SrcIDs {
			in.SrcIDs[i] = int32(i % 3)
			in.DstIDs[i] = int32(i % 4)
		}
		for i := range in.USrcIDs {
			in.USrcIDs[i] = int32(i % 3)
			in.UDstIDs[i] = int32(i % 5)
		}
		want := 0
		for _, side := range [][2][]int32{{in.DstIDs, in.UDstIDs}, {in.SrcIDs, in.USrcIDs}} {
			cand := append(append([]int32(nil), side[0]...), side[1]...)
			for i, id := range side[0] {
				for j, cid := range cand {
					if j != i && cid != id {
						want++
					}
				}
			}
		}
		grad := s.NewChunkGrad(c, u)
		s.ScoreChunk(s.NewWorkspace(c, u), in, grad)
		if grad.NegCount != want {
			t.Errorf("reciprocal=%v: negative count = %d, want %d", reciprocal, grad.NegCount, want)
		}
	}
}

func TestScoreSingleEdgeConsistency(t *testing.T) {
	// Score must equal the chunk's positive pair score.
	s, _ := NewScorer(6, "translation", "cos", "logistic", 0.1, false)
	in := makeChunk(s, 2, 2, 23)
	got := s.Score(in.Src.Row(1), in.Dst.Row(1), in.RelFwd)
	// Reference via naive path.
	tbuf := make([]float32, 6)
	s.Op.Apply(tbuf, in.Src.Row(1), in.RelFwd)
	want := vec.Cosine(tbuf, in.Dst.Row(1))
	if !approx(got, want, 1e-4) {
		t.Fatalf("Score = %v, want %v", got, want)
	}
}

func TestWorkspaceTooSmallPanics(t *testing.T) {
	s, _ := NewScorer(4, "identity", "dot", "ranking", 0.1, false)
	in := makeChunk(s, 4, 2, 31)
	ws := s.NewWorkspace(2, 2)
	grad := s.NewChunkGrad(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized chunk")
		}
	}()
	s.ScoreChunk(ws, in, grad)
}

func TestNewScorerValidation(t *testing.T) {
	if _, err := NewScorer(0, "identity", "dot", "ranking", 0.1, false); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := NewScorer(4, "nope", "dot", "ranking", 0.1, false); err == nil {
		t.Fatal("expected error for bad operator")
	}
	if _, err := NewScorer(4, "identity", "nope", "ranking", 0.1, false); err == nil {
		t.Fatal("expected error for bad comparator")
	}
	if _, err := NewScorer(4, "identity", "dot", "nope", 0.1, false); err == nil {
		t.Fatal("expected error for bad loss")
	}
}

func BenchmarkScoreChunkBatched(b *testing.B) {
	// Figure 3 configuration: chunk of 50, 50 uniform candidates, d=100.
	s, _ := NewScorer(100, "identity", "dot", "ranking", 0.1, false)
	in := makeChunk(s, 50, 50, 1)
	ws := s.NewWorkspace(50, 50)
	grad := s.NewChunkGrad(50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreChunk(ws, in, grad)
	}
	// 50 positives per call.
	b.ReportMetric(float64(b.N*50)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkScoreChunkUnbatched(b *testing.B) {
	// Same per-positive negative count achieved with chunk size 1: the
	// unbatched baseline from Figure 4.
	s, _ := NewScorer(100, "identity", "dot", "ranking", 0.1, false)
	in := makeChunk(s, 1, 99, 1)
	ws := s.NewWorkspace(1, 99)
	grad := s.NewChunkGrad(1, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreChunk(ws, in, grad)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
