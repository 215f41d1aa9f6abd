package linalg

import (
	"fmt"
	"math"
)

// Preconditioner approximates A^{-1}: Apply writes M^{-1} r into z without
// allocating (z never aliases r in this package's solvers). ILU0 implements
// it; nil means no preconditioning.
type Preconditioner interface {
	Apply(z, r Vector)
}

// SolvePrecBiCGSTAB solves A x = b with right-preconditioned BiCGSTAB:
// the Krylov space is built on A M^{-1}, so the residual the convergence
// test sees is the true residual of the original system. With m == nil it
// degenerates to plain BiCGSTAB. The iteration count it reports is the
// number of BiCGSTAB steps (each costing two matvecs and two
// preconditioner applications).
func SolvePrecBiCGSTAB(a *CSR, b Vector, m Preconditioner, opts IterOpts) (Vector, IterResult, error) {
	opts.defaults()
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, IterResult{}, fmt.Errorf("linalg: SolvePrecBiCGSTAB dimension mismatch")
	}
	x := NewVector(n)
	bNorm := b.Norm2()
	if bNorm == 0 {
		bNorm = 1
	}
	r := b.Clone() // the residual of the zero start
	if rn := r.Norm2() / bNorm; rn <= opts.Tol {
		return x, IterResult{Iterations: 0, Residual: rn}, nil
	}
	rHat := r.Clone()
	rho, alpha, omega := 1.0, 1.0, 1.0
	v := NewVector(n)
	p := NewVector(n)
	pHat := NewVector(n)
	s := NewVector(n)
	sHat := NewVector(n)
	t := NewVector(n)
	apply := func(z, r Vector) {
		if m != nil {
			m.Apply(z, r)
		} else {
			copy(z, r)
		}
	}
	// On an exact Lanczos breakdown (rho or rHat.v hitting zero with the
	// residual still above tolerance) the method is restarted from the
	// current iterate with a fresh shadow residual rHat = r — the standard
	// recovery — instead of failing; a second breakdown at the same
	// iteration means no progress is possible and errors out.
	lastRestart := -1
	restart := func(it int, what string) error {
		if it == lastRestart {
			return fmt.Errorf("linalg: PrecBiCGSTAB breakdown (%s) at iteration %d", what, it)
		}
		lastRestart = it
		a.MulVecTo(r, x)
		r.Sub(b, r)
		copy(rHat, r)
		rho, alpha, omega = 1, 1, 1
		v.Fill(0)
		p.Fill(0)
		return nil
	}
	for it := 1; it <= opts.MaxIter; it++ {
		rhoNext := rHat.Dot(r)
		if rhoNext == 0 {
			if rn := r.Norm2() / bNorm; rn <= opts.Tol {
				return x, IterResult{Iterations: it, Residual: rn}, nil
			}
			if err := restart(it, "rho=0"); err != nil {
				return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm}, err
			}
			rhoNext = rHat.Dot(r)
			if rhoNext == 0 {
				return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
					fmt.Errorf("linalg: PrecBiCGSTAB breakdown (rho=0) at iteration %d", it)
			}
		}
		beta := (rhoNext / rho) * (alpha / omega)
		rho = rhoNext
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		apply(pHat, p)
		a.MulVecTo(v, pHat)
		den := rHat.Dot(v)
		if den == 0 {
			return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (rHat.v=0) at iteration %d", it)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sn := s.Norm2() / bNorm; sn <= opts.Tol {
			x.AXPY(alpha, pHat)
			return x, IterResult{Iterations: it, Residual: sn}, nil
		}
		apply(sHat, s)
		a.MulVecTo(t, sHat)
		tt := t.Dot(t)
		if tt == 0 {
			return x, IterResult{Iterations: it, Residual: s.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (t=0) at iteration %d", it)
		}
		omega = t.Dot(s) / tt
		for i := range x {
			x[i] += alpha*pHat[i] + omega*sHat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		if rn := r.Norm2() / bNorm; rn <= opts.Tol {
			return x, IterResult{Iterations: it, Residual: rn}, nil
		}
		if omega == 0 {
			return x, IterResult{Iterations: it, Residual: r.Norm2() / bNorm},
				fmt.Errorf("linalg: PrecBiCGSTAB breakdown (omega=0) at iteration %d", it)
		}
	}
	return x, IterResult{Iterations: opts.MaxIter, Residual: r.Norm2() / bNorm}, ErrNoConvergence
}

// GMRESOpts configures SolveGMRES beyond the shared IterOpts.
type GMRESOpts struct {
	IterOpts
	// Restart is the Krylov subspace dimension m of GMRES(m); default 40.
	Restart int
}

// SolveGMRES solves A x = b with restarted, right-preconditioned GMRES(m):
// Arnoldi with modified Gram-Schmidt, Givens rotations maintaining the
// least-squares residual incrementally, restart every m steps. The reported
// iteration count is the total number of Arnoldi steps across restarts
// (one matvec plus one preconditioner application each).
func SolveGMRES(a *CSR, b Vector, m Preconditioner, opts GMRESOpts) (Vector, IterResult, error) {
	opts.defaults()
	if opts.Restart <= 0 {
		opts.Restart = 40
	}
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, IterResult{}, fmt.Errorf("linalg: SolveGMRES dimension mismatch")
	}
	restart := opts.Restart
	if restart > n {
		restart = n
	}
	x := NewVector(n)
	bNorm := b.Norm2()
	if bNorm == 0 {
		bNorm = 1
	}
	apply := func(z, r Vector) {
		if m != nil {
			m.Apply(z, r)
		} else {
			copy(z, r)
		}
	}

	// Workspaces reused across restarts.
	r := NewVector(n)
	w := NewVector(n)
	z := NewVector(n)
	v := make([]Vector, restart+1)
	for i := range v {
		v[i] = NewVector(n)
	}
	h := make([][]float64, restart+1) // h[i][j] = H(i, j), row-major Hessenberg
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	y := make([]float64, restart)

	total := 0
	lastRes := math.Inf(1)
	for total < opts.MaxIter {
		a.MulVecTo(r, x)
		r.Sub(b, r)
		beta := r.Norm2()
		lastRes = beta / bNorm
		if lastRes <= opts.Tol {
			return x, IterResult{Iterations: total, Residual: lastRes}, nil
		}
		if math.IsNaN(lastRes) || math.IsInf(lastRes, 0) {
			return nil, IterResult{Iterations: total, Residual: lastRes},
				fmt.Errorf("linalg: GMRES diverged after %d iterations", total)
		}
		inv := 1 / beta
		for i := range v[0] {
			v[0][i] = r[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0 // Arnoldi steps completed this cycle
		for ; k < restart && total < opts.MaxIter; k++ {
			total++
			apply(z, v[k])
			a.MulVecTo(w, z)
			// Modified Gram-Schmidt against v[0..k].
			for i := 0; i <= k; i++ {
				hik := w.Dot(v[i])
				h[i][k] = hik
				w.AXPY(-hik, v[i])
			}
			hn := w.Norm2()
			h[k+1][k] = hn
			if hn != 0 {
				inv := 1 / hn
				for i := range v[k+1] {
					v[k+1][i] = w[i] * inv
				}
			}
			// Apply the accumulated Givens rotations to the new column,
			// then generate the rotation eliminating H(k+1, k).
			for i := 0; i < k; i++ {
				hi, hi1 := h[i][k], h[i+1][k]
				h[i][k] = cs[i]*hi + sn[i]*hi1
				h[i+1][k] = -sn[i]*hi + cs[i]*hi1
			}
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			lastRes = math.Abs(g[k+1]) / bNorm
			if lastRes <= opts.Tol || hn == 0 {
				k++
				break
			}
		}
		// Solve the k x k upper-triangular system H y = g.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			y[i] = s / h[i][i]
		}
		// x += M^{-1} (V y): accumulate V y in w, precondition once.
		w.Fill(0)
		for j := 0; j < k; j++ {
			w.AXPY(y[j], v[j])
		}
		apply(z, w)
		x.AXPY(1, z)
		if lastRes <= opts.Tol {
			// Recompute the true residual: the rotated estimate can drift
			// from the true one in long preconditioned runs.
			trueRes := ResidualNorm(a, x, b) / bNorm
			if trueRes <= opts.Tol {
				return x, IterResult{Iterations: total, Residual: trueRes}, nil
			}
			lastRes = trueRes
		}
	}
	return x, IterResult{Iterations: total, Residual: lastRes}, ErrNoConvergence
}
