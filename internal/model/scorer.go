package model

import (
	"fmt"

	"pbg/internal/vec"
)

// Scorer wires an operator, comparator and loss into the batched chunk
// computation of §4.3 / Figure 3. One Scorer is shared read-only by all
// workers; each worker owns a Workspace for scratch space.
//
// Scoring convention: the operator transforms the source side,
// f(s, r, d) = sim(g(θ_s; θ_r), θ_d). With Reciprocal=true a second
// parameter block per relation (the "reciprocal predicate" of Lacroix et al.
// 2018, used by the paper's FB15k ComplEx runs) transforms the destination
// side when ranking corrupted sources: f_rev(s, r, d) = sim(θ_s, g(θ_d; θ'_r)).
type Scorer struct {
	Dim        int
	Op         Operator
	Cmp        Comparator
	Loss       Loss
	Reciprocal bool
}

// NewScorer validates and builds a scorer from config strings.
func NewScorer(dim int, operator, comparator, loss string, margin float32, reciprocal bool) (*Scorer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("model: non-positive dimension %d", dim)
	}
	op, err := NewOperator(operator, dim)
	if err != nil {
		return nil, err
	}
	cmp, err := NewComparator(comparator)
	if err != nil {
		return nil, err
	}
	ls, err := NewLoss(loss, margin)
	if err != nil {
		return nil, err
	}
	return &Scorer{Dim: dim, Op: op, Cmp: cmp, Loss: ls, Reciprocal: reciprocal}, nil
}

// RelParamCount returns the number of float32 parameters one relation needs
// (doubled under reciprocal mode).
func (s *Scorer) RelParamCount() int {
	n := s.Op.ParamCount(s.Dim)
	if s.Reciprocal {
		n *= 2
	}
	return n
}

// SplitRelParams splits a relation's parameter block into forward and
// reverse halves. rev is nil when not reciprocal.
func (s *Scorer) SplitRelParams(params []float32) (fwd, rev []float32) {
	n := s.Op.ParamCount(s.Dim)
	if n == 0 {
		return nil, nil
	}
	if s.Reciprocal {
		return params[:n], params[n:]
	}
	return params, nil
}

// InitRelParams initialises a relation parameter block in place.
func (s *Scorer) InitRelParams(params []float32) {
	fwd, rev := s.SplitRelParams(params)
	if fwd != nil {
		s.Op.InitParams(fwd, nil)
	}
	if rev != nil {
		s.Op.InitParams(rev, nil)
	}
}

// Score computes f(s, r, d) for a single edge given raw embeddings; used by
// evaluation. relParams is the full (possibly reciprocal) block; the forward
// half is used.
func (s *Scorer) Score(src, dst, relParams []float32) float32 {
	fwd, _ := s.SplitRelParams(relParams)
	ts := make([]float32, s.Dim)
	s.Op.Apply(ts, src, fwd)
	a := vec.MatrixFrom(ts, 1, s.Dim)
	dcopy := make([]float32, s.Dim)
	copy(dcopy, dst)
	b := vec.MatrixFrom(dcopy, 1, s.Dim)
	s.Cmp.Prepare(a)
	s.Cmp.Prepare(b)
	out := make([]float32, 1)
	s.Cmp.PairScores(out, a, b)
	return out[0]
}

// ScoreReverse computes the reverse-direction score used when ranking
// corrupted sources under reciprocal relations:
// f_rev(s, r, d) = sim(θ_s, g(θ_d; θ'_r)). Without reciprocal parameters it
// equals Score.
func (s *Scorer) ScoreReverse(src, dst, relParams []float32) float32 {
	if !s.Reciprocal {
		return s.Score(src, dst, relParams)
	}
	_, rev := s.SplitRelParams(relParams)
	td := make([]float32, s.Dim)
	s.Op.Apply(td, dst, rev)
	a := vec.MatrixFrom(td, 1, s.Dim)
	scopy := make([]float32, s.Dim)
	copy(scopy, src)
	b := vec.MatrixFrom(scopy, 1, s.Dim)
	s.Cmp.Prepare(a)
	s.Cmp.Prepare(b)
	out := make([]float32, 1)
	s.Cmp.PairScores(out, a, b)
	return out[0]
}

// ScoreMany computes scores of one transformed query against many candidate
// rows: out[j] = sim(g(src), cand_j). cand is modified in place by Prepare;
// pass a scratch copy. Used by the evaluation harness for ranking.
func (s *Scorer) ScoreMany(out []float32, src, relParams []float32, cand vec.Matrix) {
	fwd, _ := s.SplitRelParams(relParams)
	ts := make([]float32, s.Dim)
	s.Op.Apply(ts, src, fwd)
	a := vec.MatrixFrom(ts, 1, s.Dim)
	s.Cmp.Prepare(a)
	s.Cmp.Prepare(cand)
	o := vec.MatrixFrom(out, 1, len(out))
	s.Cmp.CrossScores(o, a, cand)
}

// ChunkInput is one chunk of positive edges plus the uniformly sampled
// candidate entities, with raw (untransformed, unprepared) embeddings
// gathered by the caller. C = Src.Rows positives, U = USrc.Rows extra
// candidates per side.
type ChunkInput struct {
	Src, Dst   vec.Matrix // C×d raw embeddings of the positive edges
	USrc, UDst vec.Matrix // U×d raw embeddings of sampled candidates
	// Entity IDs aligned with the rows above; used to mask induced
	// positives (a candidate that IS the true endpoint of that edge).
	SrcIDs, DstIDs   []int32
	USrcIDs, UDstIDs []int32
	// RelWeight is the per-relation edge weight (§3.1 feature list).
	RelWeight float32
	// RelFwd / RelRev are the relation operator parameters. RelRev is only
	// consulted when the scorer is reciprocal.
	RelFwd, RelRev []float32
}

// ChunkGrad receives gradients with respect to every raw input of a chunk.
// The caller owns the buffers and applies them with its optimizer.
type ChunkGrad struct {
	Src, Dst   vec.Matrix
	USrc, UDst vec.Matrix
	RelFwd     []float32
	RelRev     []float32
	Loss       float64
	// NegCount is the number of unmasked negative examples contributing.
	NegCount int
}

// NewChunkGrad allocates gradient buffers for chunks up to maxC positives
// and maxU uniform candidates.
func (s *Scorer) NewChunkGrad(maxC, maxU int) *ChunkGrad {
	g := &ChunkGrad{
		Src:    vec.NewMatrix(maxC, s.Dim),
		Dst:    vec.NewMatrix(maxC, s.Dim),
		USrc:   vec.NewMatrix(maxU, s.Dim),
		UDst:   vec.NewMatrix(maxU, s.Dim),
		RelFwd: make([]float32, s.Op.ParamCount(s.Dim)),
	}
	if s.Reciprocal {
		g.RelRev = make([]float32, s.Op.ParamCount(s.Dim))
	}
	return g
}

// view returns the subview of g sized for a chunk with C positives and U
// candidates, zeroing the active region.
func (g *ChunkGrad) view(c, u, dim int) ChunkGrad {
	out := ChunkGrad{
		Src:    vec.MatrixFrom(g.Src.Data[:c*dim], c, dim),
		Dst:    vec.MatrixFrom(g.Dst.Data[:c*dim], c, dim),
		USrc:   vec.MatrixFrom(g.USrc.Data[:u*dim], u, dim),
		UDst:   vec.MatrixFrom(g.UDst.Data[:u*dim], u, dim),
		RelFwd: g.RelFwd,
		RelRev: g.RelRev,
	}
	vec.Zero(out.Src.Data)
	vec.Zero(out.Dst.Data)
	vec.Zero(out.USrc.Data)
	vec.Zero(out.UDst.Data)
	vec.Zero(out.RelFwd)
	vec.Zero(out.RelRev)
	return out
}

// Workspace holds per-worker scratch buffers for ScoreChunk, sized at
// construction for the largest chunk the worker will process.
type Workspace struct {
	maxC, maxU int
	dim        int

	ts      vec.Matrix // C×d transformed sources
	td      vec.Matrix // C×d transformed destinations (reciprocal mode)
	candD   vec.Matrix // (C+U)×d destination candidates (prepared in place)
	candS   vec.Matrix // (C+U)×d source candidate raw copies
	tsAll   vec.Matrix // (C+U)×d transformed source candidates (non-reciprocal)
	pd      vec.Matrix // C×d prepared destination copies
	pos     []float32
	pos2    []float32
	gPos    []float32
	gPos2   []float32
	negD    vec.Matrix
	negS    vec.Matrix
	gNegD   vec.Matrix
	gNegS   vec.Matrix
	gTS     vec.Matrix
	gTD     vec.Matrix
	gCandD  vec.Matrix
	gCandS  vec.Matrix
	gTSAll  vec.Matrix
	gPD     vec.Matrix
	candIDs []int32
}

// NewWorkspace allocates scratch for chunks of at most maxC positives and
// maxU uniform candidates per side.
func (s *Scorer) NewWorkspace(maxC, maxU int) *Workspace {
	d := s.Dim
	cu := maxC + maxU
	return &Workspace{
		maxC: maxC, maxU: maxU, dim: d,
		ts:      vec.NewMatrix(maxC, d),
		td:      vec.NewMatrix(maxC, d),
		candD:   vec.NewMatrix(cu, d),
		candS:   vec.NewMatrix(cu, d),
		tsAll:   vec.NewMatrix(cu, d),
		pd:      vec.NewMatrix(maxC, d),
		pos:     make([]float32, maxC),
		pos2:    make([]float32, maxC),
		gPos:    make([]float32, maxC),
		gPos2:   make([]float32, maxC),
		negD:    vec.NewMatrix(maxC, cu),
		negS:    vec.NewMatrix(maxC, cu),
		gNegD:   vec.NewMatrix(maxC, cu),
		gNegS:   vec.NewMatrix(maxC, cu),
		gTS:     vec.NewMatrix(maxC, d),
		gTD:     vec.NewMatrix(maxC, d),
		gCandD:  vec.NewMatrix(cu, d),
		gCandS:  vec.NewMatrix(cu, d),
		gTSAll:  vec.NewMatrix(cu, d),
		gPD:     vec.NewMatrix(maxC, d),
		candIDs: make([]int32, cu),
	}
}

func subMat(m vec.Matrix, rows, cols int) vec.Matrix {
	return vec.MatrixFrom(m.Data[:rows*cols], rows, cols)
}

// ScoreChunk runs the full forward + backward pass for one chunk: every
// positive is scored against all C+U destination-side candidates (its own
// chunk's destinations plus the uniform sample) and all C+U source-side
// candidates, masking induced positives — exactly the construction of
// Figure 3, where a chunk of 50 edges and 50+50 sampled entities yields
// 50×200−100 = 9900 negatives. Gradients land in grad.
func (s *Scorer) ScoreChunk(ws *Workspace, in *ChunkInput, grad *ChunkGrad) {
	c := in.Src.Rows
	u := in.USrc.Rows
	if c > ws.maxC || u > ws.maxU {
		panic(fmt.Sprintf("model: chunk %d/%d exceeds workspace %d/%d", c, u, ws.maxC, ws.maxU))
	}
	d := s.Dim
	g := grad.view(c, u, d)
	cu := c + u

	// ---- Destination-corruption side ----
	// Transform sources.
	ts := subMat(ws.ts, c, d)
	for i := 0; i < c; i++ {
		s.Op.Apply(ts.Row(i), in.Src.Row(i), in.RelFwd)
	}
	// Candidate destinations = [Dst; UDst] (copied: Prepare mutates).
	candD := subMat(ws.candD, cu, d)
	copy(candD.Data[:c*d], in.Dst.Data)
	copy(candD.Data[c*d:], in.UDst.Data)
	stateTS := s.Cmp.Prepare(ts)
	stateD := s.Cmp.Prepare(candD)

	pos := ws.pos[:c]
	topD := subMat(candD, c, d)
	s.Cmp.PairScores(pos, ts, topD)

	negD := subMat(ws.negD, c, cu)
	s.Cmp.CrossScores(negD, ts, candD)
	candIDs := ws.candIDs[:cu]
	copy(candIDs[:c], in.DstIDs)
	copy(candIDs[c:], in.UDstIDs)
	g.NegCount += c*cu - maskInduced(negD, candIDs, in.DstIDs)

	gPos := ws.gPos[:c]
	vec.Zero(gPos)
	gNegD := subMat(ws.gNegD, c, cu)
	g.Loss += s.Loss.Compute(pos, negD, gPos, gNegD, in.RelWeight)

	gTS := subMat(ws.gTS, c, d)
	gCandD := subMat(ws.gCandD, cu, d)
	vec.Zero(gTS.Data)
	vec.Zero(gCandD.Data)
	gTopD := subMat(gCandD, c, d)
	s.Cmp.PairBackward(gTS, gTopD, gPos, pos, ts, topD)
	s.Cmp.CrossBackward(gTS, gCandD, gNegD, negD, ts, candD)
	s.Cmp.UnprepareGrad(gTS, ts, stateTS)
	s.Cmp.UnprepareGrad(gCandD, candD, stateD)
	// Distribute: candidate grads → Dst/UDst, transformed-source grads →
	// Src (through the operator) and relation params.
	vec.Axpy(1, gCandD.Data[:c*d], g.Dst.Data)
	vec.Axpy(1, gCandD.Data[c*d:], g.UDst.Data)
	for i := 0; i < c; i++ {
		s.Op.Backward(g.Src.Row(i), g.RelFwd, in.Src.Row(i), in.RelFwd, gTS.Row(i))
	}

	// ---- Source-corruption side ----
	candS := subMat(ws.candS, cu, d)
	copy(candS.Data[:c*d], in.Src.Data)
	copy(candS.Data[c*d:], in.USrc.Data)
	copy(candIDs[:c], in.SrcIDs)
	copy(candIDs[c:], in.USrcIDs)

	pos2 := ws.pos2[:c]
	gPos2 := ws.gPos2[:c]
	vec.Zero(gPos2)
	negS := subMat(ws.negS, c, cu)
	gNegS := subMat(ws.gNegS, c, cu)

	if s.Reciprocal {
		// f_rev(s', r, d) = sim(g(d; θ_rev), s'): transform destinations,
		// compare against raw candidate sources.
		td := subMat(ws.td, c, d)
		for i := 0; i < c; i++ {
			s.Op.Apply(td.Row(i), in.Dst.Row(i), in.RelRev)
		}
		stateTD := s.Cmp.Prepare(td)
		stateS := s.Cmp.Prepare(candS)
		topS := subMat(candS, c, d)
		s.Cmp.PairScores(pos2, td, topS)
		s.Cmp.CrossScores(negS, td, candS)
		g.NegCount += c*cu - maskInduced(negS, candIDs, in.SrcIDs)
		g.Loss += s.Loss.Compute(pos2, negS, gPos2, gNegS, in.RelWeight)

		gTD := subMat(ws.gTD, c, d)
		gCandS := subMat(ws.gCandS, cu, d)
		vec.Zero(gTD.Data)
		vec.Zero(gCandS.Data)
		gTopS := subMat(gCandS, c, d)
		s.Cmp.PairBackward(gTD, gTopS, gPos2, pos2, td, topS)
		s.Cmp.CrossBackward(gTD, gCandS, gNegS, negS, td, candS)
		s.Cmp.UnprepareGrad(gTD, td, stateTD)
		s.Cmp.UnprepareGrad(gCandS, candS, stateS)
		vec.Axpy(1, gCandS.Data[:c*d], g.Src.Data)
		vec.Axpy(1, gCandS.Data[c*d:], g.USrc.Data)
		for i := 0; i < c; i++ {
			s.Op.Backward(g.Dst.Row(i), g.RelRev, in.Dst.Row(i), in.RelRev, gTD.Row(i))
		}
	} else {
		// f(s', r, d) = sim(g(s'), d): transform every candidate source,
		// compare against (a fresh prepared copy of) the destinations.
		tsAll := subMat(ws.tsAll, cu, d)
		for k := 0; k < cu; k++ {
			s.Op.Apply(tsAll.Row(k), candS.Row(k), in.RelFwd)
		}
		pd := subMat(ws.pd, c, d)
		copy(pd.Data, in.Dst.Data)
		stateAll := s.Cmp.Prepare(tsAll)
		statePD := s.Cmp.Prepare(pd)
		topAll := subMat(tsAll, c, d)
		s.Cmp.PairScores(pos2, pd, topAll)
		s.Cmp.CrossScores(negS, pd, tsAll)
		g.NegCount += c*cu - maskInduced(negS, candIDs, in.SrcIDs)
		g.Loss += s.Loss.Compute(pos2, negS, gPos2, gNegS, in.RelWeight)

		gPD := subMat(ws.gPD, c, d)
		gTSAll := subMat(ws.gTSAll, cu, d)
		vec.Zero(gPD.Data)
		vec.Zero(gTSAll.Data)
		gTopAll := subMat(gTSAll, c, d)
		s.Cmp.PairBackward(gPD, gTopAll, gPos2, pos2, pd, topAll)
		s.Cmp.CrossBackward(gPD, gTSAll, gNegS, negS, pd, tsAll)
		s.Cmp.UnprepareGrad(gPD, pd, statePD)
		s.Cmp.UnprepareGrad(gTSAll, tsAll, stateAll)
		vec.Axpy(1, gPD.Data, g.Dst.Data)
		for k := 0; k < cu; k++ {
			var target []float32
			if k < c {
				target = g.Src.Row(k)
			} else {
				target = g.USrc.Row(k - c)
			}
			s.Op.Backward(target, g.RelFwd, candS.Row(k), in.RelFwd, gTSAll.Row(k))
		}
	}

	grad.Loss = g.Loss
	grad.NegCount = g.NegCount
}

// maskInduced sets score (i, j) to Masked when candidate j is the true
// endpoint of positive i: either the self column (j == i, the edge itself)
// or any candidate carrying the same entity ID. It returns how many entries
// it masked, which is what the caller subtracts from the block's size to
// count the negatives that contribute.
func maskInduced(scores vec.Matrix, candIDs []int32, posIDs []int32) int {
	masked := 0
	for i := 0; i < scores.Rows; i++ {
		row := scores.Row(i)
		id := posIDs[i]
		for j, cid := range candIDs {
			if j == i || cid == id {
				row[j] = Masked
				masked++
			}
		}
	}
	return masked
}
