// Package model implements the multi-relation scoring machinery of §3.1:
// relation operators g(x; θr), comparators sim(a, b), ranking losses, and
// the memory-efficient batched negative scoring of §4.3 / Figure 3.
//
// There is no autograd here: every operator, comparator and loss implements
// an explicit backward pass, and the test suite validates each against
// finite differences. The combination (operator, comparator) reproduces the
// published models:
//
//	RESCAL   = linear + dot
//	TransE   = translation + cos (or l2)
//	DistMult = diagonal + dot
//	ComplEx  = complex_diagonal + dot
//
// A chunk's score block is dense but its gradient is not: under the margin
// ranking loss only the negatives that violate the margin carry gradient, a
// quarter of them or fewer after the first epochs. So the gradient block is
// never materialised densely. Loss.Compute masks induced positives (by
// comparing entity IDs), takes the loss and emits the block as per-positive
// lists of (candidate, weight) in one pass — a vec.SparseRows; its transpose
// gives the per-candidate lists; and Comparator.CrossBackward hands the two
// to vec.AddRowsSparse, the one kernel under both backward products. The
// dense losses (logistic, softmax) emit every unmasked entry through the same
// path. ChunkGrad.ActiveNegs ÷ NegCount is the block density, which training
// throughput follows.
package model

import (
	"fmt"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Operator is a relation operator g(x; θ) applied rowwise to embeddings.
// Implementations are stateless; relation parameters are passed in so the
// same Operator value serves every relation of that kind.
type Operator interface {
	// Name returns the config string for this operator.
	Name() string
	// ParamCount returns the number of float32 parameters a relation needs
	// at embedding dimension dim.
	ParamCount(dim int) int
	// Apply computes dst = g(x; params). dst and x must not alias unless the
	// operator documents otherwise; all callers in this repo use distinct
	// buffers.
	Apply(dst, x, params []float32)
	// Backward accumulates (+=) the gradients of a scalar loss into gX and
	// gParams, given the upstream gradient gOut on the operator output.
	// gParams may be nil to skip parameter gradients (e.g. frozen relations).
	Backward(gX, gParams, x, params, gOut []float32)
	// InitParams writes the identity-like initialisation the paper uses so
	// that training starts from untransformed embeddings.
	InitParams(params []float32, r *rng.RNG)
}

// NewOperator returns the operator registered under name. Valid names:
// "identity", "translation", "diagonal", "linear", "complex_diagonal".
func NewOperator(name string, dim int) (Operator, error) {
	switch name {
	case "", "identity":
		return IdentityOperator{}, nil
	case "translation":
		return TranslationOperator{}, nil
	case "diagonal":
		return DiagonalOperator{}, nil
	case "linear":
		return LinearOperator{}, nil
	case "complex_diagonal":
		if dim%2 != 0 {
			return nil, fmt.Errorf("model: complex_diagonal requires even dimension, got %d", dim)
		}
		return ComplexDiagonalOperator{}, nil
	default:
		return nil, fmt.Errorf("model: unknown operator %q", name)
	}
}

// IdentityOperator leaves embeddings untransformed: g(x) = x. Used for
// single-relation graphs (LiveJournal, Twitter) where §3.1 notes the
// untransformed embeddings predict edges directly.
type IdentityOperator struct{}

func (IdentityOperator) Name() string           { return "identity" }
func (IdentityOperator) ParamCount(dim int) int { return 0 }
func (IdentityOperator) Apply(dst, x, _ []float32) {
	vec.Copy(dst, x)
}
func (IdentityOperator) Backward(gX, _, _, _, gOut []float32) {
	vec.Axpy(1, gOut, gX)
}
func (IdentityOperator) InitParams(_ []float32, _ *rng.RNG) {}

// TranslationOperator implements TransE: g(x) = x + θ.
type TranslationOperator struct{}

func (TranslationOperator) Name() string           { return "translation" }
func (TranslationOperator) ParamCount(dim int) int { return dim }
func (TranslationOperator) Apply(dst, x, params []float32) {
	vec.Add(dst, x, params)
}
func (TranslationOperator) Backward(gX, gParams, _, _, gOut []float32) {
	vec.Axpy(1, gOut, gX)
	if gParams != nil {
		vec.Axpy(1, gOut, gParams)
	}
}
func (TranslationOperator) InitParams(params []float32, _ *rng.RNG) {
	vec.Zero(params)
}

// DiagonalOperator implements DistMult: g(x) = x ⊙ θ.
type DiagonalOperator struct{}

func (DiagonalOperator) Name() string           { return "diagonal" }
func (DiagonalOperator) ParamCount(dim int) int { return dim }
func (DiagonalOperator) Apply(dst, x, params []float32) {
	vec.Mul(dst, x, params)
}
func (DiagonalOperator) Backward(gX, gParams, x, params, gOut []float32) {
	vec.MulAdd(gX, gOut, params)
	if gParams != nil {
		vec.MulAdd(gParams, gOut, x)
	}
}
func (DiagonalOperator) InitParams(params []float32, _ *rng.RNG) {
	for i := range params {
		params[i] = 1
	}
}

// LinearOperator implements RESCAL: g(x) = A·x with A a dense d×d matrix
// stored row-major in params.
type LinearOperator struct{}

func (LinearOperator) Name() string           { return "linear" }
func (LinearOperator) ParamCount(dim int) int { return dim * dim }
func (LinearOperator) Apply(dst, x, params []float32) {
	d := len(x)
	a := vec.MatrixFrom(params, d, d)
	vec.MatVec(dst, a, x)
}
func (LinearOperator) Backward(gX, gParams, x, params, gOut []float32) {
	d := len(x)
	a := vec.MatrixFrom(params, d, d)
	// gX += Aᵀ · gOut
	for i := 0; i < d; i++ {
		vec.Axpy(gOut[i], a.Row(i), gX)
	}
	// gA[i][j] += gOut[i] * x[j]
	if gParams != nil {
		ga := vec.MatrixFrom(gParams, d, d)
		for i := 0; i < d; i++ {
			vec.Axpy(gOut[i], x, ga.Row(i))
		}
	}
}
func (LinearOperator) InitParams(params []float32, _ *rng.RNG) {
	d := 0
	for d*d < len(params) {
		d++
	}
	vec.Zero(params)
	for i := 0; i < d; i++ {
		params[i*d+i] = 1
	}
}

// ComplexDiagonalOperator implements ComplEx: embeddings of even dimension d
// are treated as d/2 complex numbers (layout [re..., im...]) and
// g(x) = x ∘ θ (complex Hadamard product). Combined with the dot comparator
// this yields exactly Re⟨x∘θ, conj(y)⟩, the ComplEx score.
type ComplexDiagonalOperator struct{}

func (ComplexDiagonalOperator) Name() string           { return "complex_diagonal" }
func (ComplexDiagonalOperator) ParamCount(dim int) int { return dim }
func (ComplexDiagonalOperator) Apply(dst, x, params []float32) {
	vec.ComplexMul(dst, x, params)
}
func (ComplexDiagonalOperator) Backward(gX, gParams, x, params, gOut []float32) {
	vec.ComplexMulConjAdd(gX, gOut, params)
	if gParams != nil {
		vec.ComplexMulConjAdd(gParams, gOut, x)
	}
}
func (ComplexDiagonalOperator) InitParams(params []float32, _ *rng.RNG) {
	h := len(params) / 2
	for i := 0; i < h; i++ {
		params[i] = 1   // real part
		params[h+i] = 0 // imaginary part
	}
}
