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
	// CrossScores computes out[i][j] = sim(a_i, b_j) for all pairs.
	CrossScores(out, a, b vec.Matrix)
	// CrossScoresRows computes out[i][j] = sim(a_i, b_idx[j]): CrossScores
	// against the prepared rows idx of b, read where they lie (vec.MulABtRows)
	// and bitwise what CrossScores returns over a gathered copy of them. A nil
	// idx is every row of b in order, i.e. CrossScores.
	CrossScoresRows(out, a, b vec.Matrix, idx []int32)
	// PairBackward accumulates gradients of Σ g[i]·score[i] into ga, gb
	// (in prepared space). scores holds the forward PairScores output.
	PairBackward(ga, gb vec.Matrix, g, scores []float32, a, b vec.Matrix)
	// CrossBackward accumulates gradients of Σ g[i][j]·score[i][j] into
	// ga, gb (in prepared space). g is the upstream gradient block as the
	// Loss emitted it (row i: positive i's non-zeros) and gT its transpose
	// (row j: candidate j's non-zeros, ascending i), so both products walk
	// only the entries that carry gradient. scores holds the forward
	// CrossScores output.
	CrossBackward(ga, gb vec.Matrix, g, gT *vec.SparseRows, scores, a, b vec.Matrix)
	// UnprepareGrad maps the accumulated gradient g from prepared space back
	// to raw space in place, given the prepared matrix and Prepare's state.
	UnprepareGrad(g, prepared vec.Matrix, state []float32)
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

func (DotComparator) CrossScores(out, a, b vec.Matrix) {
	vec.MulABt(out, a, b)
}

func (DotComparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	vec.MulABtRows(out, a, b, idx)
}

func (DotComparator) PairBackward(ga, gb vec.Matrix, g, _ []float32, a, b vec.Matrix) {
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		vec.Axpy(gi, b.Row(i), ga.Row(i))
		vec.Axpy(gi, a.Row(i), gb.Row(i))
	}
}

func (DotComparator) CrossBackward(ga, gb vec.Matrix, g, gT *vec.SparseRows, _, a, b vec.Matrix) {
	vec.AddRowsSparse(ga, g, b)
	vec.AddRowsSparse(gb, gT, a)
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

func (CosComparator) CrossScores(out, a, b vec.Matrix) {
	DotComparator{}.CrossScores(out, a, b)
}

func (CosComparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	DotComparator{}.CrossScoresRows(out, a, b, idx)
}

func (CosComparator) PairBackward(ga, gb vec.Matrix, g, scores []float32, a, b vec.Matrix) {
	DotComparator{}.PairBackward(ga, gb, g, scores, a, b)
}

func (CosComparator) CrossBackward(ga, gb vec.Matrix, g, gT *vec.SparseRows, scores, a, b vec.Matrix) {
	DotComparator{}.CrossBackward(ga, gb, g, gT, scores, a, b)
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

func (c SquaredL2Comparator) CrossScores(out, a, b vec.Matrix) {
	c.CrossScoresRows(out, a, b, nil)
}

// l2NormChunk is how many column norms SquaredL2Comparator.CrossScoresRows
// holds at a time, in a stack array, so the call allocates nothing.
const l2NormChunk = 256

func (SquaredL2Comparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	vec.MulABtRows(out, a, b, idx)
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

func (SquaredL2Comparator) CrossBackward(ga, gb vec.Matrix, g, gT *vec.SparseRows, _, a, b vec.Matrix) {
	// dL/da_i = Σ_j g_ij · (−2)(a_i − b_j) = −2·rowsum_i·a_i + 2·(G·B)_i
	// dL/db_j = Σ_i g_ij · ( 2)(a_i − b_j) =  2·(Gᵀ·A)_j − 2·colsum_j·b_j
	// The GEMM parts.
	tmpA := vec.NewMatrix(ga.Rows, ga.Cols)
	tmpB := vec.NewMatrix(gb.Rows, gb.Cols)
	vec.AddRowsSparse(tmpA, g, b)
	vec.AddRowsSparse(tmpB, gT, a)
	for i := 0; i < ga.Rows; i++ {
		sum := rowSum(g, i)
		gar, ar, tr := ga.Row(i), a.Row(i), tmpA.Row(i)
		for k := range gar {
			gar[k] += 2*tr[k] - 2*sum*ar[k]
		}
	}
	for j := 0; j < gb.Rows; j++ {
		sum := rowSum(gT, j)
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

func (c L2Comparator) CrossScores(out, a, b vec.Matrix) {
	c.CrossScoresRows(out, a, b, nil)
}

func (L2Comparator) CrossScoresRows(out, a, b vec.Matrix, idx []int32) {
	SquaredL2Comparator{}.CrossScoresRows(out, a, b, idx)
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

func (L2Comparator) CrossBackward(ga, gb vec.Matrix, g, gT *vec.SparseRows, scores, a, b vec.Matrix) {
	// Reduce to the squared-L2 backward with rescaled upstream gradients:
	// d(−dist)/dθ = d(−dist²)/dθ · 1/(2·dist). at(i, j) is the entry's score.
	rescale := func(g *vec.SparseRows, at func(row int, col int32) float32) *vec.SparseRows {
		scaled := &vec.SparseRows{Start: g.Start, Idx: g.Idx, W: make([]float32, len(g.W))}
		for i := 0; i < g.Rows(); i++ {
			for k := g.Start[i]; k < g.Start[i+1]; k++ {
				if dist := -at(i, g.Idx[k]); dist > 0 {
					scaled.W[k] = g.W[k] / (2 * dist)
				}
			}
		}
		return scaled
	}
	sg := rescale(g, func(i int, j int32) float32 { return scores.Row(i)[j] })
	sgT := rescale(gT, func(j int, i int32) float32 { return scores.Row(int(i))[j] })
	SquaredL2Comparator{}.CrossBackward(ga, gb, sg, sgT, scores, a, b)
}

func (L2Comparator) UnprepareGrad(_, _ vec.Matrix, _ []float32) {}
