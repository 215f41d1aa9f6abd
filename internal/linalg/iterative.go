package linalg

import "errors"

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before meeting the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// IterOpts configures the iterative solvers. Zero values select defaults.
type IterOpts struct {
	// MaxIter bounds the number of iterations (default 20000).
	MaxIter int
	// Tol is the relative residual target ||Ax-b|| / ||b|| (default 1e-12).
	// Every solve starts from the zero vector.
	Tol float64
}

func (o *IterOpts) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 20000
	}
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
}

// IterResult reports solver statistics.
type IterResult struct {
	Iterations int
	Residual   float64 // final relative residual
}
