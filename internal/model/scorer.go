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

// Score computes f(s, r, d) for a single edge given raw embeddings.
// relParams is the full (possibly reciprocal) block; the forward half is
// used.
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

// ScoreMany computes scores of one transformed query against many candidate
// rows: out[j] = sim(g(src), cand_j). cand is modified in place by Prepare;
// pass a scratch copy.
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
	// NegCount is the number of unmasked negative examples scored;
	// ActiveNegs is how many of them the loss gave a gradient entry — the
	// margin violators under the ranking loss, all of them under logistic
	// and softmax. Their ratio is the density of the gradient blocks, which
	// is what the backward pass's cost follows.
	NegCount   int
	ActiveNegs int
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
// construction for the largest chunk the worker will process. The two sides
// of a chunk run one after the other, so they share every buffer.
type Workspace struct {
	maxC, maxU int
	dim        int

	q       vec.Matrix // C×d query rows: transformed sources or destinations, or prepared destination copies
	cand    vec.Matrix // (C+U)×d candidate rows, the positives' own endpoints first
	pos     []float32
	gPos    []float32
	neg     vec.Matrix     // C×(C+U) score block
	g, gT   vec.SparseRows // its gradient block as the loss emitted it, and transposed
	gq      vec.Matrix     // gradients of q and cand
	gcand   vec.Matrix
	candIDs []int32
}

// NewWorkspace allocates scratch for chunks of at most maxC positives and
// maxU uniform candidates per side.
func (s *Scorer) NewWorkspace(maxC, maxU int) *Workspace {
	d := s.Dim
	cu := maxC + maxU
	ws := &Workspace{
		maxC: maxC, maxU: maxU, dim: d,
		q:       vec.NewMatrix(maxC, d),
		cand:    vec.NewMatrix(cu, d),
		pos:     make([]float32, maxC),
		gPos:    make([]float32, maxC),
		neg:     vec.NewMatrix(maxC, cu),
		gq:      vec.NewMatrix(maxC, d),
		gcand:   vec.NewMatrix(cu, d),
		candIDs: make([]int32, cu),
	}
	// Reserve the gradient block's room now, so a warm ScoreChunk never
	// allocates however dense a block turns out.
	ws.g.Reset(maxC, cu)
	ws.gT.Reset(cu, maxC)
	return ws
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
	q, cand, candIDs := subMat(ws.q, c, d), subMat(ws.cand, cu, d), ws.candIDs[:cu]

	// ---- Destination-corruption side: transformed sources against the
	// candidate destinations [Dst; UDst] (copied: Prepare mutates). ----
	for i := 0; i < c; i++ {
		s.Op.Apply(q.Row(i), in.Src.Row(i), in.RelFwd)
	}
	copy(cand.Data[:c*d], in.Dst.Data)
	copy(cand.Data[c*d:], in.UDst.Data)
	copy(candIDs[:c], in.DstIDs)
	copy(candIDs[c:], in.UDstIDs)
	gq, gcand := s.scoreSide(ws, &g, q, cand, in.DstIDs, candIDs, in.RelWeight)
	// Distribute: candidate grads → Dst/UDst, transformed-source grads →
	// Src (through the operator) and relation params.
	vec.Axpy(1, gcand.Data[:c*d], g.Dst.Data)
	vec.Axpy(1, gcand.Data[c*d:], g.UDst.Data)
	for i := 0; i < c; i++ {
		s.Op.Backward(g.Src.Row(i), g.RelFwd, in.Src.Row(i), in.RelFwd, gq.Row(i))
	}

	// ---- Source-corruption side ----
	copy(candIDs[:c], in.SrcIDs)
	copy(candIDs[c:], in.USrcIDs)
	if s.Reciprocal {
		// f_rev(s', r, d) = sim(g(d; θ_rev), s'): transform destinations,
		// compare against (copies of) the raw candidate sources.
		for i := 0; i < c; i++ {
			s.Op.Apply(q.Row(i), in.Dst.Row(i), in.RelRev)
		}
		copy(cand.Data[:c*d], in.Src.Data)
		copy(cand.Data[c*d:], in.USrc.Data)
		gq, gcand = s.scoreSide(ws, &g, q, cand, in.SrcIDs, candIDs, in.RelWeight)
		vec.Axpy(1, gcand.Data[:c*d], g.Src.Data)
		vec.Axpy(1, gcand.Data[c*d:], g.USrc.Data)
		for i := 0; i < c; i++ {
			s.Op.Backward(g.Dst.Row(i), g.RelRev, in.Dst.Row(i), in.RelRev, gq.Row(i))
		}
	} else {
		// f(s', r, d) = sim(g(s'), d): transform every candidate source,
		// compare against (a fresh prepared copy of) the destinations.
		for k := 0; k < c; k++ {
			s.Op.Apply(cand.Row(k), in.Src.Row(k), in.RelFwd)
		}
		for k := 0; k < u; k++ {
			s.Op.Apply(cand.Row(c+k), in.USrc.Row(k), in.RelFwd)
		}
		copy(q.Data, in.Dst.Data)
		gq, gcand = s.scoreSide(ws, &g, q, cand, in.SrcIDs, candIDs, in.RelWeight)
		vec.Axpy(1, gq.Data, g.Dst.Data)
		for k := 0; k < c; k++ {
			s.Op.Backward(g.Src.Row(k), g.RelFwd, in.Src.Row(k), in.RelFwd, gcand.Row(k))
		}
		for k := 0; k < u; k++ {
			s.Op.Backward(g.USrc.Row(k), g.RelFwd, in.USrc.Row(k), in.RelFwd, gcand.Row(c+k))
		}
	}

	grad.Loss = g.Loss
	grad.NegCount = g.NegCount
	grad.ActiveNegs = g.ActiveNegs
}

// scoreSide runs one side of a chunk on raw operands: it prepares the C query
// rows q and the C+U candidate rows cand (whose first C rows are the
// positives' own endpoints, carrying posIDs), scores pairs and the cross
// block, runs the loss's fused mask+loss pass, and returns the raw-space
// gradients of q and cand. The gradient block exists only as the loss's row
// lists and their transpose; both backward products walk those.
func (s *Scorer) scoreSide(ws *Workspace, g *ChunkGrad, q, cand vec.Matrix, posIDs, candIDs []int32, weight float32) (gq, gcand vec.Matrix) {
	c, cu, d := q.Rows, cand.Rows, s.Dim
	stateQ := s.Cmp.Prepare(q)
	stateC := s.Cmp.Prepare(cand)
	pos := ws.pos[:c]
	top := subMat(cand, c, d)
	s.Cmp.PairScores(pos, q, top)
	neg := subMat(ws.neg, c, cu)
	s.Cmp.CrossScores(neg, q, cand)

	gPos := ws.gPos[:c]
	vec.Zero(gPos)
	loss, masked := s.Loss.Compute(&ws.g, gPos, pos, neg, posIDs, candIDs, weight)
	ws.g.TransposeInto(&ws.gT, cu)
	g.Loss += loss
	g.NegCount += c*cu - masked
	g.ActiveNegs += len(ws.g.Idx)

	gq, gcand = subMat(ws.gq, c, d), subMat(ws.gcand, cu, d)
	vec.Zero(gq.Data)
	vec.Zero(gcand.Data)
	s.Cmp.PairBackward(gq, subMat(gcand, c, d), gPos, pos, q, top)
	s.Cmp.CrossBackward(gq, gcand, &ws.g, &ws.gT, neg, q, cand)
	s.Cmp.UnprepareGrad(gq, q, stateQ)
	s.Cmp.UnprepareGrad(gcand, cand, stateC)
	return gq, gcand
}
