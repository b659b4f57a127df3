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

// RowAdagrad updates one embedding row with a shared scalar accumulator:
//
//	A   += ‖g‖²/d
//	row -= lr · g / (√A + ε)
//
// The accumulator lives next to the embedding row in storage (see
// internal/storage) so it swaps to disk with the partition.
type RowAdagrad struct {
	LR  float32
	Eps float32
}

// NewRowAdagrad returns a row optimizer with the given learning rate and a
// conventional ε.
func NewRowAdagrad(lr float32) RowAdagrad {
	return RowAdagrad{LR: lr, Eps: 1e-8}
}

// Update applies one Adagrad step to param given grad, mutating *acc.
// len(param) == len(grad); acc is this row's accumulator.
//
// HOGWILD workers call it on shared rows with no lock: the update of *acc
// races by design (Recht et al. 2011), so the race detector skips it.
//
//pbg:hotpath
//go:norace
func (o RowAdagrad) Update(param, grad []float32, acc *float32) {
	ss := vec.Dot(grad, grad)
	if ss == 0 {
		return
	}
	*acc += ss / float32(len(grad))
	step := o.LR / (float32(math.Sqrt(float64(*acc))) + o.Eps)
	vec.Axpy(-step, grad, param)
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
