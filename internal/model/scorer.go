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

// ChunkInput is one chunk of positive edges plus the uniformly sampled
// candidate entities, with raw (untransformed, unprepared) embeddings
// gathered by the caller. C = Src.Rows positives, U = USrc.Rows extra
// candidates per side. ScoreChunk reads each side's C+U rows as one block:
// where the caller's gather put them when the uniform rows start where the
// positives' end in one backing array (Dst.Data then UDst.Data, and Src.Data
// then USrc.Data), and from a copy in the Workspace otherwise. The IDs
// likewise.
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
// The caller owns the buffers and applies them with its optimizer. ScoreChunk
// points the four views at two blocks sized to the chunk, positives first:
// Src then USrc are one block's rows, Dst then UDst the other's.
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

	src, dst []float32 // room for the two blocks
}

// NewChunkGrad allocates gradient buffers for chunks up to maxC positives
// and maxU uniform candidates.
func (s *Scorer) NewChunkGrad(maxC, maxU int) *ChunkGrad {
	g := &ChunkGrad{
		src:    make([]float32, (maxC+maxU)*s.Dim),
		dst:    make([]float32, (maxC+maxU)*s.Dim),
		RelFwd: make([]float32, s.Op.ParamCount(s.Dim)),
	}
	if s.Reciprocal {
		g.RelRev = make([]float32, s.Op.ParamCount(s.Dim))
	}
	g.reset(maxC, maxU, s.Dim)
	return g
}

// reset sizes g for a chunk with C positives and U candidates, zeroes it,
// and returns the source and destination blocks.
func (g *ChunkGrad) reset(c, u, dim int) (src, dst vec.Matrix) {
	cu := c + u
	src = vec.MatrixFrom(g.src[:cu*dim], cu, dim)
	dst = vec.MatrixFrom(g.dst[:cu*dim], cu, dim)
	g.Src, g.USrc = subMat(src, c, dim), vec.MatrixFrom(src.Data[c*dim:], u, dim)
	g.Dst, g.UDst = subMat(dst, c, dim), vec.MatrixFrom(dst.Data[c*dim:], u, dim)
	vec.Zero(src.Data)
	vec.Zero(dst.Data)
	vec.Zero(g.RelFwd)
	vec.Zero(g.RelRev)
	g.Loss, g.NegCount, g.ActiveNegs = 0, 0, 0
	return src, dst
}

// Workspace holds per-worker scratch buffers for ScoreChunk, sized at
// construction for the largest chunk the worker will process.
type Workspace struct {
	maxC, maxU int

	t              vec.Matrix // (C+U)×d transformed sources
	q              vec.Matrix // C×d transformed destinations (reciprocal)
	src, dst       vec.Matrix // (C+U)×d copies of raw rows, when they cannot be read in place
	srcIDs, dstIDs []int32
	stT, stD       []float32 // the comparator's Prepare state of each block (cos: row norms)
	stQ, stS       []float32
	pos, posRev    []float32
	gPos           []float32
	negD, negS     vec.Matrix     // C×(C+U) score blocks of the two sides
	g              vec.SparseRows // a side's gradient block as the loss emitted it
	gq, gcand      vec.Matrix     // gradients of a side's queries and candidates, in scratch
	cross          CrossScratch
}

// NewWorkspace allocates scratch for chunks of at most maxC positives and
// maxU uniform candidates per side.
func (s *Scorer) NewWorkspace(maxC, maxU int) *Workspace {
	d := s.Dim
	cu := maxC + maxU
	ws := &Workspace{
		maxC: maxC, maxU: maxU,
		t:      vec.NewMatrix(cu, d),
		q:      vec.NewMatrix(maxC, d),
		src:    vec.NewMatrix(cu, d),
		dst:    vec.NewMatrix(cu, d),
		srcIDs: make([]int32, cu),
		dstIDs: make([]int32, cu),
		stT:    make([]float32, cu),
		stD:    make([]float32, cu),
		stQ:    make([]float32, maxC),
		stS:    make([]float32, cu),
		pos:    make([]float32, maxC),
		posRev: make([]float32, maxC),
		gPos:   make([]float32, maxC),
		negD:   vec.NewMatrix(maxC, cu),
		negS:   vec.NewMatrix(maxC, cu),
		gq:     vec.NewMatrix(maxC, d),
		gcand:  vec.NewMatrix(cu, d),
	}
	// Reserve the gradient block's room now, and the distance comparators'
	// backward temporaries, so a warm ScoreChunk never allocates however
	// dense a block turns out.
	ws.g.Reset(maxC, cu)
	ws.cross.ga, ws.cross.gb, ws.cross.colSum = make([]float32, maxC*d), make([]float32, cu*d), make([]float32, cu)
	ws.cross.g.W = make([]float32, 0, maxC*cu)
	return ws
}

func subMat(m vec.Matrix, rows, cols int) vec.Matrix {
	return vec.MatrixFrom(m.Data[:rows*cols], rows, cols)
}

// joined returns top followed by rest as one slice: top's own backing array
// when shared allows and rest starts where top ends in it, else a copy in buf.
func joined[T any](buf, top, rest []T, shared bool) []T {
	n := len(top) + len(rest)
	if shared && cap(top) >= n && (len(rest) == 0 || &top[:n][len(top)] == &rest[0]) {
		return top[:n]
	}
	copy(buf, top)
	copy(buf[len(top):n], rest)
	return buf[:n]
}

// block is a matrix of prepared rows that one side of a chunk scores, with
// what carries a gradient with respect to them back to grad, the ChunkGrad
// rows of their raw embeddings: the operator and the raw rows it transformed
// (x, then xRest), or nothing when op is nil and m's rows are the raw
// embeddings, prepared.
type block struct {
	m, grad         vec.Matrix
	state           []float32 // the comparator's Prepare state of m
	op              Operator
	x, xRest        vec.Matrix
	params, gParams []float32
}

// head is b's first n rows.
func (b block) head(n int) block {
	b.m, b.grad = subMat(b.m, n, b.m.Cols), subMat(b.grad, n, b.grad.Cols)
	if b.state != nil {
		b.state = b.state[:n]
	}
	return b
}

func (b *block) xRow(k int) []float32 {
	if k < b.x.Rows {
		return b.x.Row(k)
	}
	return b.xRest.Row(k - b.x.Rows)
}

// prepare fills b.m — through the operator when b has one — and prepares it
// for the comparator, keeping the state in buf.
func (s *Scorer) prepare(b *block, buf []float32) {
	if b.op != nil {
		for k := 0; k < b.m.Rows; k++ {
			b.op.Apply(b.m.Row(k), b.xRow(k), b.params)
		}
	}
	b.state = s.Cmp.PrepareInto(b.m, buf)
}

// backprop hands g, the raw-space gradient of b's rows, to the ChunkGrad.
func (b *block) backprop(g vec.Matrix) {
	if b.op == nil {
		vec.Axpy(1, g.Data, b.grad.Data)
		return
	}
	for k := 0; k < g.Rows; k++ {
		b.op.Backward(b.grad.Row(k), b.gParams, b.xRow(k), b.params, g.Row(k))
	}
}

// side is one corruption side of a chunk: C query rows scored against C+U
// candidate rows, the positives' own endpoints first (carrying posIDs).
type side struct {
	q, cand         block
	posIDs, candIDs []int32
	pos             []float32
	neg             vec.Matrix
}

// ScoreChunk runs the full forward + backward pass for one chunk: every
// positive is scored against all C+U destination-side candidates (its own
// chunk's destinations plus the uniform sample) and all C+U source-side
// candidates, masking induced positives — exactly the construction of
// Figure 3, where a chunk of 50 edges and 50+50 sampled entities yields
// 50×200−100 = 9900 negatives. Gradients land in grad.
//
// Each piece of that block is computed once. The destination side scores the
// positives' transformed sources against the raw destinations. Without
// reciprocal relations the source side scores the same two kinds of rows the
// other way round — the destinations against every transformed source — so
// the sources are transformed once, all C+U of them, and that side takes the
// C pair scores and the C×C block of positives against positives from the
// destination side (transposed, before either side's finish), multiplying
// only its C×U remainder. Reciprocal mode transforms the destinations with
// their own parameters, so there its source side scores a block of its own
// on the same path. Only the backward stays per side, in the order each side
// accumulates its products.
func (s *Scorer) ScoreChunk(ws *Workspace, in *ChunkInput, grad *ChunkGrad) {
	c := in.Src.Rows
	u := in.USrc.Rows
	if c > ws.maxC || u > ws.maxU {
		panic(fmt.Sprintf("model: chunk %d/%d exceeds workspace %d/%d", c, u, ws.maxC, ws.maxU))
	}
	d, cu := s.Dim, c+u
	gSrc, gDst := grad.reset(c, u, d)
	// cos normalises in Prepare, in place, so its raw rows are copied.
	inPlace := s.Cmp.Prepare(vec.Matrix{}) == nil
	stack := func(buf, top, rest vec.Matrix) vec.Matrix {
		return vec.MatrixFrom(joined(buf.Data, top.Data, rest.Data, inPlace), top.Rows+rest.Rows, d)
	}

	nt := cu // the reciprocal source side never transforms a uniform source
	if s.Reciprocal {
		nt = c
	}
	t := block{m: subMat(ws.t, nt, d), grad: subMat(gSrc, nt, d), op: s.Op, x: in.Src, xRest: in.USrc, params: in.RelFwd, gParams: grad.RelFwd}
	dst := block{m: stack(ws.dst, in.Dst, in.UDst), grad: gDst}
	s.prepare(&t, ws.stT)
	s.prepare(&dst, ws.stD)
	sides := [2]side{
		{q: t.head(c), cand: dst, posIDs: in.DstIDs, candIDs: joined(ws.dstIDs, in.DstIDs, in.UDstIDs, true), pos: ws.pos[:c], neg: subMat(ws.negD, c, cu)},
		{posIDs: in.SrcIDs, candIDs: joined(ws.srcIDs, in.SrcIDs, in.USrcIDs, true), pos: ws.pos[:c], neg: subMat(ws.negS, c, cu)},
	}
	shared := sides[0].neg // the source side's first C columns, transposed
	if s.Reciprocal {
		sides[1].q = block{m: subMat(ws.q, c, d), grad: subMat(gDst, c, d), op: s.Op, x: in.Dst, params: in.RelRev, gParams: grad.RelRev}
		sides[1].cand = block{m: stack(ws.src, in.Src, in.USrc), grad: gSrc}
		s.prepare(&sides[1].q, ws.stQ)
		s.prepare(&sides[1].cand, ws.stS)
		sides[1].pos, shared = ws.posRev[:c], vec.Matrix{}
	} else {
		sides[1].q, sides[1].cand = dst.head(c), t
	}

	// Forward: both raw blocks before either side's finish, which the
	// distance comparators apply in each side's own operand order.
	s.Cmp.CrossRaw(sides[0].neg, sides[0].q.m, sides[0].cand.m, vec.Matrix{})
	s.Cmp.CrossRaw(sides[1].neg, sides[1].q.m, sides[1].cand.m, shared)
	for i := range sides {
		sd := &sides[i]
		s.Cmp.FinishCross(sd.neg, sd.q.m, sd.cand.m)
		if i == 0 || s.Reciprocal {
			s.Cmp.PairScores(sd.pos, sd.q.m, subMat(sd.cand.m, c, d))
		}
	}

	// Backward, side by side. The destination side's candidate gradients
	// accumulate straight into the ChunkGrad rows, which nothing has touched
	// yet; every other gradient starts in scratch and reaches the ChunkGrad
	// through its block.
	for i := range sides {
		sd := &sides[i]
		gPos := ws.gPos[:c]
		vec.Zero(gPos)
		loss, masked := s.Loss.Compute(&ws.g, gPos, sd.pos, sd.neg, sd.posIDs, sd.candIDs, in.RelWeight)
		grad.Loss += loss
		grad.NegCount += c*cu - masked
		grad.ActiveNegs += len(ws.g.Idx)

		gq, gcand := subMat(ws.gq, c, d), sd.cand.grad
		vec.Zero(gq.Data)
		if i > 0 {
			gcand = subMat(ws.gcand, cu, d)
			vec.Zero(gcand.Data)
		}
		s.Cmp.PairBackward(gq, subMat(gcand, c, d), gPos, sd.pos, sd.q.m, subMat(sd.cand.m, c, d))
		s.Cmp.CrossBackward(gq, gcand, &ws.g, sd.neg, sd.q.m, sd.cand.m, &ws.cross)
		s.Cmp.UnprepareGrad(gq, sd.q.m, sd.q.state)
		s.Cmp.UnprepareGrad(gcand, sd.cand.m, sd.cand.state)
		if i > 0 {
			sd.cand.backprop(gcand)
		}
		sd.q.backprop(gq)
	}
}
