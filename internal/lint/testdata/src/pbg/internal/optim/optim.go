// Fixture for the norace analyzer, at the optim package's path so that the
// allowlisted function is allowed here as in the repo.
package optim

type RowAdagrad struct{ LR float32 }

//go:norace
func (o RowAdagrad) Update(param, grad []float32, acc *float32) {
	*acc += grad[0] * grad[0]
	param[0] -= o.LR * grad[0]
}

//go:norace // want `//go:norace on \(\*pbg/internal/optim\.RowAdagrad\)\.Reset, which is not on the allowlist`

// Reset is not on the allowlist; the directive above binds to it all the same.
func (o *RowAdagrad) Reset() { o.LR = 0 }
