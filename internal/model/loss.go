package model

import (
	"fmt"
	"math"

	"pbg/internal/vec"
)

// Loss turns one C×N score block into its loss and its gradient. pos[i] is the
// score of positive i and row i of neg its scores against the N candidates.
// Candidate j is excluded for positive i — an induced positive of Figure 3's
// chunked construction — exactly when candIDs[j] == posIDs[i]: the mask is a
// comparison of entity IDs, never a property of the score, so every computed
// score counts however negative it is (−Inf included). No separate j == i
// test exists for the edge's own column: callers list the positives' own
// endpoints first, so candIDs[:C] are posIDs.
//
// Compute resets g to C rows and gives row i the (column, dL/dneg) pairs of
// positive i's negatives that carry gradient, columns ascending: under the
// ranking loss those are the margin violators — a minority after the first
// epochs — while logistic and softmax emit every unmasked entry. All three
// produce the same representation; there is no dense gradient block beside
// it. Compute accumulates (+=) dL/dpos into gPos, scales everything by weight
// (the per-relation edge weight) and returns the summed loss and how many
// entries the mask excluded; len(g.Idx) afterwards is how many it emitted.
// The returned loss is a value to report — no gradient depends on it — and is
// accurate to float32, not bitwise the same on the two kernel paths.
type Loss interface {
	Name() string
	Compute(g *vec.SparseRows, gPos, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, weight float32) (loss float64, masked int)
}

// NewLoss returns the loss registered under name: "ranking" (margin λ),
// "logistic", or "softmax". The margin parameter only affects "ranking".
func NewLoss(name string, margin float32) (Loss, error) {
	switch name {
	case "", "ranking":
		if margin <= 0 {
			margin = 0.1
		}
		return &RankingLoss{Margin: margin}, nil
	case "logistic":
		return LogisticLoss{}, nil
	case "softmax":
		return SoftmaxLoss{}, nil
	default:
		return nil, fmt.Errorf("model: unknown loss %q", name)
	}
}

// RankingLoss is the margin-based ranking objective of §3.1:
// L = Σ_e Σ_{e'} max(0, λ − f(e) + f(e')).
type RankingLoss struct {
	Margin float32
}

func (l *RankingLoss) Name() string { return "ranking" }

// Compute is one AppendHingeRow per positive: the ID mask, the hinge test and
// the emission of G's row are a single branch-free pass over the scores.
// A positive with k violators has gPos reduced by k·weight, rounded once (not
// by weight k times: the same number whenever k·weight is exact, as it is at
// the default weight 1, and a few ulps from it otherwise).
func (l *RankingLoss) Compute(g *vec.SparseRows, gPos, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, weight float32) (float64, int) {
	g.Reset(neg.Rows, neg.Cols)
	var total float64
	masked := 0
	for i, p := range pos {
		before := len(g.Idx)
		sum, m := g.AppendHingeRow(neg.Row(i), candIDs, l.Margin-p, posIDs[i], weight)
		total += sum
		masked += m
		gPos[i] -= float32(len(g.Idx)-before) * weight
	}
	return total * float64(weight), masked
}

// LogisticLoss is independent binary cross-entropy on positives (label 1)
// and negatives (label 0) with the score as the logit. The paper notes this
// choice makes partition-restricted negatives immaterial (§4.1 footnote).
type LogisticLoss struct{}

func (LogisticLoss) Name() string { return "logistic" }

func (LogisticLoss) Compute(g *vec.SparseRows, gPos, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, weight float32) (float64, int) {
	g.Reset(neg.Rows, neg.Cols)
	var total float64
	masked := 0
	for i, p := range pos {
		total += -float64(vec.LogSigmoid(p)) * float64(weight)
		gPos[i] += (vec.Sigmoid(p) - 1) * weight
		id := posIDs[i]
		for j, n := range neg.Row(i) {
			if candIDs[j] == id {
				masked++
				continue
			}
			total += -float64(vec.LogSigmoid(-n)) * float64(weight)
			g.Append(int32(j), vec.Sigmoid(n)*weight)
		}
		g.EndRow()
	}
	return total, masked
}

// SoftmaxLoss is the multi-class objective used for the ComplEx FB15k runs
// (§5.4.1): each positive competes against its own negatives,
// L_i = −f(e_i) + log(exp f(e_i) + Σ_j exp f(e'_ij)).
type SoftmaxLoss struct{}

func (SoftmaxLoss) Name() string { return "softmax" }

func (SoftmaxLoss) Compute(g *vec.SparseRows, gPos, pos []float32, neg vec.Matrix, posIDs, candIDs []int32, weight float32) (float64, int) {
	g.Reset(neg.Rows, neg.Cols)
	var total float64
	masked := 0
	for i, p := range pos {
		row := neg.Row(i)
		id := posIDs[i]
		// Stable logsumexp over {pos} ∪ unmasked negatives.
		m := p
		for j, n := range row {
			if candIDs[j] != id && n > m {
				m = n
			}
		}
		var sum float64
		for j, n := range row {
			if candIDs[j] != id {
				sum += math.Exp(float64(n - m))
			}
		}
		sum += math.Exp(float64(p - m))
		lse := float64(m) + math.Log(sum)
		total += (lse - float64(p)) * float64(weight)
		pPos := float32(math.Exp(float64(p) - lse))
		gPos[i] += (pPos - 1) * weight
		for j, n := range row {
			if candIDs[j] == id {
				masked++
				continue
			}
			g.Append(int32(j), float32(math.Exp(float64(n)-lse))*weight)
		}
		g.EndRow()
	}
	return total, masked
}
