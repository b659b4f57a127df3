package model

import (
	"fmt"
	"math"

	"pbg/internal/vec"
)

// Comparator computes similarity scores between (transformed) embeddings.
// The batched path works on "prepared" matrices: Prepare is called once per
// matrix (cos normalises rows there), scores are computed in prepared space,
// and UnprepareGrad maps gradients back to raw space. This mirrors how PBG
// amortises normalisation across the Bn×Bn score block of Figure 3.
type Comparator interface {
	// Name returns the config string for this comparator.
	Name() string
	// Prepare may transform m in place and returns per-row state needed by
	// UnprepareGrad (e.g. row norms), or nil when Prepare is the identity.
	// It is PrepareInto(m, nil): callers that discard the state use it.
	Prepare(m vec.Matrix) []float32
	// PrepareInto is Prepare with caller-owned room for the state: state
	// is reused when its capacity holds m.Rows entries, so a caller that
	// prepares every chunk (the training Workspace) allocates nothing.
	PrepareInto(m vec.Matrix, state []float32) []float32
	// PairScores computes out[i] = sim(a_i, b_i) for matching rows.
	PairScores(out []float32, a, b vec.Matrix)
	// CrossScoresRows computes out[i][j] = sim(a_i, b_idx[j]) against the
	// prepared rows idx of b, read where they lie (vec.MulABtRows) and bitwise
	// what it returns over a gathered copy of them. A nil idx is every row of
	// b in order: out[i][j] = sim(a_i, b_j) for all pairs.
	CrossScoresRows(out, a, b vec.Matrix, idx []int32)
	// CrossRaw and FinishCross are CrossScoresRows(…, nil) in its two steps,
	// for a caller that shares the first between two blocks: every
	// comparator's cross score is a GEMM of prepared rows, then an
	// elementwise finish. CrossRaw writes the GEMM, out = a·bᵀ, reading its
	// first t.Rows columns from t — the raw block of the product taken the
	// other way round, t[j][i] = a_i·b_j — and multiplying only the rest
	// (vec.MulABtReusing); an empty t multiplies every column. FinishCross
	// turns that raw block into the scores CrossScoresRows(out, a, b, nil)
	// returns, bitwise, in place: dot and cos have nothing to do, the
	// distances add the row norms in their own operand order.
	CrossRaw(out, a, b, t vec.Matrix)
	FinishCross(out, a, b vec.Matrix)
	// PairBackward accumulates gradients of Σ g[i]·score[i] into ga, gb
	// (in prepared space). scores holds the forward PairScores output.
	PairBackward(ga, gb vec.Matrix, g, scores []float32, a, b vec.Matrix)
	// CrossBackward accumulates gradients of Σ g[i][j]·score[i][j] into
	// ga, gb (in prepared space). g is the upstream gradient block as the
	// Loss emitted it (row i: positive i's non-zeros), and both products walk
	// only the entries that carry gradient: G·B gathers along g's rows
	// (vec.AddRowsSparse), Gᵀ·A scatters them (vec.AddRowsSparseT). scores
	// holds the forward cross scores; sc is room for the comparator's
	// temporaries.
	CrossBackward(ga, gb vec.Matrix, g *vec.SparseRows, scores, a, b vec.Matrix, sc *CrossScratch)
	// UnprepareGrad maps the accumulated gradient g from prepared space back
	// to raw space in place, given the prepared matrix and Prepare's state.
	UnprepareGrad(g, prepared vec.Matrix, state []float32)
}

// CrossScratch is CrossBackward's room for its temporaries, owned by the
// caller (the training Workspace) so that a warm backward allocates nothing:
// the distance comparators' G·B and Gᵀ·A products and column sums, and L2's
// rescaled gradient list. The zero value is ready to use; it grows to the
// largest block it has met.
type CrossScratch struct {
	ga, gb, colSum []float32
	g              vec.SparseRows
}

// zeroed returns buf resized to n zeroed floats, reallocating only to grow.
func zeroed(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	vec.Zero(*buf)
	return *buf
}

// NewComparator returns the comparator registered under name. Valid names:
// "dot", "cos", "l2", "squared_l2".
func NewComparator(name string) (Comparator, error) {
	switch name {
	case "", "dot":
		return DotComparator{}, nil
	case "cos":
		return CosComparator{}, nil
	case "l2":
		return L2Comparator{}, nil
	case "squared_l2":
		return SquaredL2Comparator{}, nil
	default:
		return nil, fmt.Errorf("model: unknown comparator %q", name)
	}
}

// DotComparator scores by inner product: sim(a, b) = ⟨a, b⟩.
type DotComparator struct{}

func (DotComparator) Name() string                                    { return "dot" }
func (DotComparator) Prepare(_ vec.Matrix) []float32                  { return nil }
func (DotComparator) PrepareInto(_ vec.Matrix, _ []float32) []float32 { return nil }

func (DotComparator) PairScores(out []float32, a, b vec.Matrix) {
	for i := range out {
		out[i] = vec.Dot(a.Row(i), b.Row(i))
	}
}

func (DotComparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	vec.MulABtRows(out, a, b, idx)
}

func (DotComparator) CrossRaw(out, a, b, t vec.Matrix) {
	vec.MulABtReusing(out, a, b, t)
}

func (DotComparator) FinishCross(_, _, _ vec.Matrix) {}

func (DotComparator) PairBackward(ga, gb vec.Matrix, g, _ []float32, a, b vec.Matrix) {
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		vec.Axpy(gi, b.Row(i), ga.Row(i))
		vec.Axpy(gi, a.Row(i), gb.Row(i))
	}
}

func (DotComparator) CrossBackward(ga, gb vec.Matrix, g *vec.SparseRows, _, a, b vec.Matrix, _ *CrossScratch) {
	vec.AddRowsSparse(ga, g, b)
	vec.AddRowsSparseT(gb, g, a)
}

func (DotComparator) UnprepareGrad(_, _ vec.Matrix, _ []float32) {}

// CosComparator scores by cosine similarity. Rows are normalised once in
// Prepare; scoring is then plain dot products (GEMM-friendly), and
// UnprepareGrad applies the normalisation Jacobian
// dL/dx = (g − u⟨u, g⟩)/‖x‖ with u = x/‖x‖.
type CosComparator struct{}

func (CosComparator) Name() string { return "cos" }

func (c CosComparator) Prepare(m vec.Matrix) []float32 { return c.PrepareInto(m, nil) }

func (CosComparator) PrepareInto(m vec.Matrix, state []float32) []float32 {
	// A nil state is never reused: the result must be non-nil even for an
	// empty m, since nil means "Prepare is the identity".
	if state == nil || cap(state) < m.Rows {
		state = make([]float32, m.Rows)
	}
	norms := state[:m.Rows]
	for i := range norms {
		norms[i] = vec.Normalize(m.Row(i))
	}
	return norms
}

func (CosComparator) PairScores(out []float32, a, b vec.Matrix) {
	DotComparator{}.PairScores(out, a, b)
}

func (CosComparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	DotComparator{}.CrossScoresRows(out, a, b, idx)
}

func (CosComparator) CrossRaw(out, a, b, t vec.Matrix) {
	DotComparator{}.CrossRaw(out, a, b, t)
}

func (CosComparator) FinishCross(_, _, _ vec.Matrix) {}

func (CosComparator) PairBackward(ga, gb vec.Matrix, g, scores []float32, a, b vec.Matrix) {
	DotComparator{}.PairBackward(ga, gb, g, scores, a, b)
}

func (CosComparator) CrossBackward(ga, gb vec.Matrix, g *vec.SparseRows, scores, a, b vec.Matrix, sc *CrossScratch) {
	DotComparator{}.CrossBackward(ga, gb, g, scores, a, b, sc)
}

func (CosComparator) UnprepareGrad(g, prepared vec.Matrix, state []float32) {
	for i := 0; i < g.Rows; i++ {
		n := state[i]
		gi := g.Row(i)
		if n == 0 {
			// Zero rows were left unnormalised; their cosine is constant 0,
			// so no gradient flows.
			vec.Zero(gi)
			continue
		}
		u := prepared.Row(i)
		proj := vec.Dot(u, gi)
		vec.Axpy(-proj, u, gi)
		vec.Scale(1/n, gi)
	}
}

// SquaredL2Comparator scores by negative squared distance:
// sim(a, b) = −‖a−b‖². Cross scores decompose into row norms plus one GEMM:
// −(‖a_i‖² − 2⟨a_i, b_j⟩ + ‖b_j‖²).
type SquaredL2Comparator struct{}

func (SquaredL2Comparator) Name() string                                    { return "squared_l2" }
func (SquaredL2Comparator) Prepare(_ vec.Matrix) []float32                  { return nil }
func (SquaredL2Comparator) PrepareInto(_ vec.Matrix, _ []float32) []float32 { return nil }

func (SquaredL2Comparator) PairScores(out []float32, a, b vec.Matrix) {
	for i := range out {
		out[i] = -vec.SquaredDistance(a.Row(i), b.Row(i))
	}
}

// l2NormChunk is how many column norms SquaredL2Comparator's finish holds at
// a time, in a stack array, so the call allocates nothing.
const l2NormChunk = 256

func (SquaredL2Comparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	vec.MulABtRows(out, a, b, idx)
	finishSquaredL2(out, a, b, idx)
}

func (SquaredL2Comparator) CrossRaw(out, a, b, t vec.Matrix) {
	DotComparator{}.CrossRaw(out, a, b, t)
}

func (SquaredL2Comparator) FinishCross(out, a, b vec.Matrix) {
	finishSquaredL2(out, a, b, nil)
}

// finishSquaredL2 turns the dot products out[i][j] = a_i·b_idx[j] into
// −‖a_i − b_idx[j]‖² = 2·a_i·b_idx[j] − ‖a_i‖² − ‖b_idx[j]‖², in that order.
func finishSquaredL2(out, a, b vec.Matrix, idx []int32) {
	var bN [l2NormChunk]float32
	for lo := 0; lo < out.Cols; lo += l2NormChunk {
		cols := bN[:min(l2NormChunk, out.Cols-lo)]
		for j := range cols {
			row := lo + j
			if idx != nil {
				row = int(idx[row])
			}
			cols[j] = vec.SumSquares(b.Row(row))
		}
		for i := 0; i < out.Rows; i++ {
			aN := vec.SumSquares(a.Row(i))
			row := out.Row(i)[lo : lo+len(cols)]
			for j := range row {
				row[j] = 2*row[j] - aN - cols[j]
			}
		}
	}
}

func (SquaredL2Comparator) PairBackward(ga, gb vec.Matrix, g, _ []float32, a, b vec.Matrix) {
	// d/da −‖a−b‖² = −2(a−b)
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		ar, br := a.Row(i), b.Row(i)
		gar, gbr := ga.Row(i), gb.Row(i)
		for k := range ar {
			diff := 2 * gi * (ar[k] - br[k])
			gar[k] -= diff
			gbr[k] += diff
		}
	}
}

func (SquaredL2Comparator) CrossBackward(ga, gb vec.Matrix, g *vec.SparseRows, _, a, b vec.Matrix, sc *CrossScratch) {
	// dL/da_i = Σ_j g_ij · (−2)(a_i − b_j) = −2·rowsum_i·a_i + 2·(G·B)_i
	// dL/db_j = Σ_i g_ij · ( 2)(a_i − b_j) =  2·(Gᵀ·A)_j − 2·colsum_j·b_j
	// The GEMM parts.
	tmpA := vec.MatrixFrom(zeroed(&sc.ga, len(ga.Data)), ga.Rows, ga.Cols)
	tmpB := vec.MatrixFrom(zeroed(&sc.gb, len(gb.Data)), gb.Rows, gb.Cols)
	vec.AddRowsSparse(tmpA, g, b)
	vec.AddRowsSparseT(tmpB, g, a)
	// The column sums, in one pass over g: column j's weights are added in
	// ascending row order, as a list of column j's entries would add them.
	colSum := zeroed(&sc.colSum, gb.Rows)
	for k, j := range g.Idx {
		colSum[j] += g.W[k]
	}
	for i := 0; i < ga.Rows; i++ {
		sum := rowSum(g, i)
		gar, ar, tr := ga.Row(i), a.Row(i), tmpA.Row(i)
		for k := range gar {
			gar[k] += 2*tr[k] - 2*sum*ar[k]
		}
	}
	for j, sum := range colSum {
		gbr, br, tr := gb.Row(j), b.Row(j), tmpB.Row(j)
		for k := range gbr {
			gbr[k] += 2*tr[k] - 2*sum*br[k]
		}
	}
}

// rowSum adds the weights of row i of g in list order.
func rowSum(g *vec.SparseRows, i int) float32 {
	var sum float32
	for _, w := range g.W[g.Start[i]:g.Start[i+1]] {
		sum += w
	}
	return sum
}

func (SquaredL2Comparator) UnprepareGrad(_, _ vec.Matrix, _ []float32) {}

// L2Comparator scores by negative distance: sim(a, b) = −‖a−b‖. The backward
// pass reuses the forward scores (dist = −score) to avoid recomputing norms.
type L2Comparator struct{}

const l2Eps = 1e-12

func (L2Comparator) Name() string                                    { return "l2" }
func (L2Comparator) Prepare(_ vec.Matrix) []float32                  { return nil }
func (L2Comparator) PrepareInto(_ vec.Matrix, _ []float32) []float32 { return nil }

func (L2Comparator) PairScores(out []float32, a, b vec.Matrix) {
	for i := range out {
		out[i] = -float32(math.Sqrt(float64(vec.SquaredDistance(a.Row(i), b.Row(i))) + l2Eps))
	}
}

func (L2Comparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	SquaredL2Comparator{}.CrossScoresRows(out, a, b, idx)
	finishL2(out)
}

func (L2Comparator) CrossRaw(out, a, b, t vec.Matrix) {
	DotComparator{}.CrossRaw(out, a, b, t)
}

func (L2Comparator) FinishCross(out, a, b vec.Matrix) {
	SquaredL2Comparator{}.FinishCross(out, a, b)
	finishL2(out)
}

// finishL2 turns squared-L2 scores −‖a−b‖² into L2 scores −‖a−b‖ in place.
func finishL2(out vec.Matrix) {
	for i := range out.Data {
		sq := float64(-out.Data[i])
		if sq < 0 {
			sq = 0 // float32 cancellation can nudge tiny distances negative
		}
		out.Data[i] = -float32(math.Sqrt(sq + l2Eps))
	}
}

func (L2Comparator) PairBackward(ga, gb vec.Matrix, g, scores []float32, a, b vec.Matrix) {
	// score = −dist; d(score)/da = −(a−b)/dist.
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		dist := -scores[i]
		if dist <= 0 {
			continue
		}
		f := gi / dist
		ar, br := a.Row(i), b.Row(i)
		gar, gbr := ga.Row(i), gb.Row(i)
		for k := range ar {
			d := f * (ar[k] - br[k])
			gar[k] -= d
			gbr[k] += d
		}
	}
}

func (L2Comparator) CrossBackward(ga, gb vec.Matrix, g *vec.SparseRows, scores, a, b vec.Matrix, sc *CrossScratch) {
	// Reduce to the squared-L2 backward with rescaled upstream gradients:
	// d(−dist)/dθ = d(−dist²)/dθ · 1/(2·dist), entry by entry, into sc's
	// list (g's rows and columns, its own weights).
	rescale(&sc.g, g, scores)
	SquaredL2Comparator{}.CrossBackward(ga, gb, &sc.g, scores, a, b, sc)
}

// rescale makes out g's entries with every weight divided by 2·dist, where
// dist = −scores[i][j] is entry (i, j)'s distance (0 where dist ≤ 0). It
// reuses out's weight buffer and borrows g's rows and columns.
func rescale(out, g *vec.SparseRows, scores vec.Matrix) {
	w := out.W
	if cap(w) < len(g.W) {
		w = make([]float32, len(g.W))
	}
	w = w[:len(g.W)]
	for i := 0; i < g.Rows(); i++ {
		row := scores.Row(i)
		for k := g.Start[i]; k < g.Start[i+1]; k++ {
			w[k] = 0
			if dist := -row[g.Idx[k]]; dist > 0 {
				w[k] = g.W[k] / (2 * dist)
			}
		}
	}
	*out = vec.SparseRows{Start: g.Start, Idx: g.Idx, W: w}
}

func (L2Comparator) UnprepareGrad(_, _ vec.Matrix, _ []float32) {}
