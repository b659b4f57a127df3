// Package optim implements the optimizers from §3.1 of the paper: Adagrad
// with the accumulated gradient summed over each embedding vector (one
// scalar of state per embedding row, the memory optimisation that makes
// billion-node tables feasible), dense Adagrad for the small shared
// parameters (relation operators), and plain SGD for baselines.
package optim

import (
	"math"

	"pbg/internal/vec"
)

// RowAdagrad updates embedding rows with one shared scalar accumulator per
// row:
//
//	A   += ‖g‖²/d
//	row -= lr · g / (√A + ε)
//
// The accumulators live next to the embedding rows in storage (see
// internal/storage) so they swap to disk with the partition.
type RowAdagrad struct {
	LR  float32
	Eps float32
}

// NewRowAdagrad returns a row optimizer with the given learning rate and a
// conventional ε.
func NewRowAdagrad(lr float32) RowAdagrad {
	return RowAdagrad{LR: lr, Eps: 1e-8}
}

// Update applies one Adagrad step per row of a gradient block: for k
// ascending, row ids[k]−first of the table embs (len(acc) rows of g.Cols
// floats, row major) and its accumulator acc[ids[k]−first] take the step of
// g.Row(k). A row with a zero gradient is left untouched, and a row listed
// twice takes both steps in list order. The whole block is one call of
// vec.AdagradRows: one assembly leaf on amd64, bitwise the per-row
// Dot → scalar → Axpy chain, which is the portable path. Every id is checked
// against the table before any row is written.
//
// HOGWILD workers call it on shared rows with no lock: the updates of rows
// and accumulators race by design (Recht et al. 2011), so the race detector
// skips it.
//
//pbg:hotpath
//go:norace
func (o RowAdagrad) Update(embs, acc []float32, ids []int32, first int32, g vec.Matrix) {
	vec.AdagradRows(embs, acc, ids, first, g, o.LR, o.Eps)
}

// DenseAdagrad keeps a full per-element accumulator; used for relation
// operator parameters, which are few (§4.2: < 10⁶ shared parameters).
type DenseAdagrad struct {
	LR  float32
	Eps float32
	Acc []float32
}

// NewDenseAdagrad allocates state for n parameters.
func NewDenseAdagrad(lr float32, n int) *DenseAdagrad {
	return &DenseAdagrad{LR: lr, Eps: 1e-8, Acc: make([]float32, n)}
}

// Update applies one Adagrad step to param given grad.
func (o *DenseAdagrad) Update(param, grad []float32) {
	if len(param) != len(grad) || len(param) > len(o.Acc) {
		panic("optim: DenseAdagrad size mismatch")
	}
	for i, g := range grad {
		if g == 0 {
			continue
		}
		o.Acc[i] += g * g
		param[i] -= o.LR * g / (float32(math.Sqrt(float64(o.Acc[i]))) + o.Eps)
	}
}

// Reset zeroes the accumulator (used when reusing state across runs).
func (o *DenseAdagrad) Reset() {
	for i := range o.Acc {
		o.Acc[i] = 0
	}
}

// SGD is plain stochastic gradient descent, provided for the baselines and
// ablations comparing against Adagrad.
type SGD struct {
	LR float32
}

// Update applies param -= lr·grad.
func (o SGD) Update(param, grad []float32) {
	for i, g := range grad {
		param[i] -= o.LR * g
	}
}
