package ctmc

// Warm-start sweep solving. Parameter sweeps (the paper's TIDS grids and
// design spaces) solve a family of chains that share one reachability
// graph and differ only in rates. A SweepSolver exploits that two ways:
//
//   - Vector warm start: each solve starts from the previous grid point's
//     sojourn vector instead of zero, trimming the head of the iteration.
//   - Relaxation calibration: the first (cold) solve of the sweep observes
//     the Gauss-Seidel contraction rate ρ ≈ (r_end/r_0)^(1/iters) and
//     derives Young's optimal SOR factor ω* = 2/(1+sqrt(1-ρ)), derated
//     toward 1 for safety; subsequent solves of the family run at ω*. This
//     is where the bulk of the reduction comes from — on the canonical
//     TIDS sweep ρ ≈ 0.86..0.95, putting ω* near 1.4..1.6 and cutting SOR
//     sweeps roughly 3x — and it is information a standalone cold solve
//     does not have, because ρ is a property of the operator family the
//     sweep is walking through.
//
// Over-relaxation past the stability edge stagnates rather than converges,
// so adapted attempts run under an iteration budget derived from the last
// successful solve; on failure the solver falls back to the standard ω = 1
// cascade and disables adaptation for the rest of the sweep. Every solve
// still converges to the cascade's 1e-12 relative residual: warm starts
// change iteration counts (ctmc.SolveIterations), never answers.

import (
	"math"

	"repro/internal/linalg"
)

// SweepSolver chains transient solves across the grid points of a
// parameter sweep. The zero value is ready to use; it is not safe for
// concurrent use (a sweep chain is inherently sequential).
type SweepSolver struct {
	prev      linalg.Vector // previous grid point's sojourn vector
	omega     float64       // calibrated SOR relaxation factor; 0 = uncalibrated
	lastIters int           // iterations of the last successful SOR attempt
	disabled  bool          // adaptation abandoned after a stagnated attempt
}

// NewSweepSolver returns a fresh solver chain for one sweep family.
func NewSweepSolver() *SweepSolver { return &SweepSolver{} }

// Observe records an externally obtained solution (typically a cache hit)
// as the warm-start predecessor for the next grid point.
func (ws *SweepSolver) Observe(sol *Solution) {
	if sol != nil {
		ws.prev = sol.y
	}
}

// Solve performs the sojourn solve for chain c started in init, warm
// starting from — and calibrating on — the sweep's earlier solves.
//
// Under "auto" the exact block-triangular solve answers first, so warm
// start and ω calibration only matter for chains it declines. The
// ω-calibration machinery is SOR-specific; when the chain's selected
// backend resolves to a Krylov method the sweep delegates to it directly,
// still handing over the previous grid point's vector as the warm start.
// The Krylov backends pull the chain-cached ILU(0) factors, so the whole
// sweep family pays one factorization per chain, not one per point.
func (ws *SweepSolver) Solve(c *Chain, init int) (*Solution, error) {
	at, rhs, y, done, err := c.transientSystem(init)
	if err != nil {
		return nil, err
	}
	if !done {
		x0 := c.compactWarm(ws.prev)
		var sol linalg.Vector
		sel := c.Solver()
		direct := sel.Name() == BackendAuto && !c.dirSubT.declined()
		if direct || resolveBackend(sel, at).Name() != BackendSORCascade {
			sol, err = c.solveVia(at, rhs, x0, c.iluForSubT, &c.dirSubT)
		} else {
			solveCount.Add(1)
			sol, err = ws.solveSystem(at, rhs, x0)
			if err == nil {
				if verr := validateSolve(at, rhs, sol); verr != nil {
					// The warm/over-relaxed path produced an invalid
					// vector; degrade to a cold clean cascade rather
					// than admit it.
					countFallback(BackendSORCascade)
					sol, err = cascade(&SolveContext{A: at, B: rhs})
				}
			}
		}
		if err != nil {
			return nil, err
		}
		c.expandTransient(y, sol)
	}
	out := &Solution{chain: c, init: init, y: y}
	ws.prev = y
	return out, nil
}

// solveSystem runs one warm, possibly over-relaxed SOR attempt and falls
// back to the standard cascade when it fails.
func (ws *SweepSolver) solveSystem(at *linalg.CSR, rhs, x0 linalg.Vector) (linalg.Vector, error) {
	ctx := &SolveContext{A: at, B: rhs, X0: x0}
	if ws.disabled {
		return cascade(ctx)
	}
	if ws.omega == 0 {
		// Calibration solve at ω = 1. The observed contraction rate needs
		// the initial relative residual; for a cold start it is exactly 1,
		// for a warm start one matvec measures it.
		r0 := 1.0
		if x0 != nil {
			r := linalg.NewVector(len(rhs))
			at.MulVecTo(r, x0)
			r.Sub(r, rhs)
			if bn := rhs.Norm2(); bn > 0 {
				r0 = r.Norm2() / bn
			}
		}
		x, res, err := linalg.SolveSOR(at, rhs, linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter, X0: x0})
		addSolveIters(BackendSORCascade, uint64(res.Iterations))
		if err != nil {
			// This was already a full-budget ω = 1 SOR run; go straight
			// to the cascade's BiCGSTAB/LU tail instead of repeating it.
			ws.disabled = true
			return cascadeTail(ctx, err)
		}
		ws.calibrate(r0, res)
		ws.lastIters = res.Iterations
		return x, nil
	}
	// Adapted attempt. Stagnation at too-high ω would otherwise burn the
	// full 40k budget, so bound it by a generous multiple of the last
	// successful solve.
	budget := 4*ws.lastIters + 400
	if budget > solverMaxIter {
		budget = solverMaxIter
	}
	x, res, err := linalg.SolveSOR(at, rhs, linalg.IterOpts{Tol: solverTol, MaxIter: budget, Omega: ws.omega, X0: x0})
	addSolveIters(BackendSORCascade, uint64(res.Iterations))
	if err == nil {
		ws.lastIters = res.Iterations
		return x, nil
	}
	// The family left ω*'s stability region: give up on adaptation for
	// the remaining grid points rather than stagnating on each.
	ws.disabled = true
	return cascade(ctx)
}

// calibrate derives the derated Young factor from an observed ω = 1 run.
func (ws *SweepSolver) calibrate(r0 float64, res linalg.IterResult) {
	if res.Iterations < 8 || res.Residual <= 0 || r0 <= res.Residual {
		return // too little contraction observed to estimate a rate
	}
	rho := math.Pow(res.Residual/r0, 1/float64(res.Iterations))
	if math.IsNaN(rho) || rho <= 0 || rho >= 1 {
		return
	}
	// Young: ω_opt = 2/(1+sqrt(1-ρ_GS)) for consistently ordered systems.
	// The generator systems here are close enough for the formula to land
	// in the fast band, but its edge stagnates, so derate toward 1.
	omega := 2 / (1 + math.Sqrt(1-rho))
	omega = 1 + 0.9*(omega-1)
	if omega > 1.9 {
		omega = 1.9
	}
	if omega > 1 {
		ws.omega = omega
	}
}
