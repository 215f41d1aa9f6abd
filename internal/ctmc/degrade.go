package ctmc

// Graceful-degradation solve ladder. Every logical transient solve routed
// through Chain.solveVia runs primary rung → ILU(0)-BiCGSTAB → dense LU.
// The primary rung is the chain's backend, which under "auto" first tries
// the exact block-triangular solve and answers a pattern it declines with
// ILU(0)-BiCGSTAB. The ladder advances a rung only when the one below it
// broke down or produced an invalid solution. "Invalid" is decided by
// validateSolve — every rung's output must be finite in every entry and
// pass a residual gate — so a backend that silently returns garbage (a
// Krylov breakdown that "converged" to NaN, a fault-injected corruption)
// is caught here, before the value can reach the engine's result cache or
// a snapshot.
//
// Degradations are counted per failed backend (FallbacksByBackend), which
// is the health signal /v1/stats and /healthz surface: a production server
// whose primary solver has started breaking down keeps answering correctly
// from the fallback rungs while the counters say so loudly.
//
// The ladder is also where the solver-layer fault-injection points live:
// forced breakdowns, non-finite outputs, and hung solves are injected on
// the *primary* attempt only, so an injected fault always degrades onto a
// clean rung and the chaos suite can assert bit-level agreement with dense
// LU even under 100% primary-failure rates.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// solveValidateTol is the residual admission gate, deliberately loose
// relative to the 1e-12 convergence target: it never rejects a legitimately
// converged solution, only results whose residual says the backend lied.
const solveValidateTol = 1e-8

// denseRescueMax bounds the dense-LU terminal rung (an O(n^3) factorization
// over an O(n^2) matrix materialization); larger systems that exhaust the
// iterative rungs report failure instead.
const denseRescueMax = 1500

var (
	fallbackMu     sync.Mutex
	fallbackByName = make(map[string]*atomic.Uint64)
	fallbackTotal  atomic.Uint64
)

// countFallback records that backend's solve failed (or failed validation)
// and the ladder moved past it.
func countFallback(backend string) {
	fallbackTotal.Add(1)
	fallbackMu.Lock()
	c, ok := fallbackByName[backend]
	if !ok {
		c = &atomic.Uint64{}
		fallbackByName[backend] = c
	}
	fallbackMu.Unlock()
	c.Add(1)
}

// FallbacksByBackend snapshots, per backend name, how many solves failed
// that backend (breakdown or validation) and degraded to the next rung.
func FallbacksByBackend() map[string]uint64 {
	fallbackMu.Lock()
	defer fallbackMu.Unlock()
	out := make(map[string]uint64, len(fallbackByName))
	for name, c := range fallbackByName {
		out[name] = c.Load()
	}
	return out
}

// Fallbacks returns the cumulative count of solver-rung degradations (the
// scalar the service's degraded-health window watches).
func Fallbacks() uint64 { return fallbackTotal.Load() }

// validateSolve is the admission gate every solver rung's output passes
// before it is accepted: all entries finite, and the true residual within
// solveValidateTol of the right-hand side's norm. The comparison is
// written !(r <= gate) so a NaN residual fails it too.
func validateSolve(a *linalg.CSR, rhs, x linalg.Vector) error {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ctmc: non-finite solution entry x[%d] = %v", i, v)
		}
	}
	bn := rhs.Norm2()
	if bn == 0 {
		bn = 1
	}
	if r := linalg.ResidualNorm(a, x, rhs); !(r <= solveValidateTol*bn) {
		return fmt.Errorf("ctmc: solution failed the residual gate: ||Ax-b|| = %g, admitted at %g", r, solveValidateTol*bn)
	}
	return nil
}

// solveDegrading runs the ladder for one system: the primary backend
// first, then a clean ILU(0)-BiCGSTAB rung, then a dense-LU rescue for
// systems small enough to afford it. Each rung's result is validated;
// only a validated vector escapes.
func solveDegrading(primary SolverBackend, ctx *SolveContext) (linalg.Vector, error) {
	// A typo'd $REPRO_SOLVER is operator misconfiguration, not a solver
	// breakdown: rescuing it on a fallback rung would silently run a
	// different solver than the operator asked for — exactly the bug the
	// invalid backend exists to fail loudly on.
	if inv, ok := primary.(invalidEnvBackend); ok {
		return inv.Solve(ctx)
	}
	faultinject.SleepFor(faultinject.SolverHang, faultinject.SolverHangMS, 100)
	x, err := attemptRung(primary, ctx, true)
	if err == nil {
		return x, nil
	}
	countFallback(primary.Name())
	errs := []error{fmt.Errorf("%s: %w", primary.Name(), err)}

	x, err = attemptRung(iluBiCGSTABBackend{}, ctx, false)
	if err == nil {
		return x, nil
	}
	countFallback(BackendILUBiCGSTAB)
	errs = append(errs, fmt.Errorf("%s: %w", BackendILUBiCGSTAB, err))

	if ctx.A.Rows <= denseRescueMax {
		xd, derr := linalg.SolveDense(ctx.A.Dense(), ctx.B)
		if derr == nil {
			derr = validateSolve(ctx.A, ctx.B, xd)
		}
		if derr == nil {
			return xd, nil
		}
		countFallback("dense-lu")
		errs = append(errs, fmt.Errorf("dense-lu: %w", derr))
	}
	return nil, fmt.Errorf("ctmc: every solver rung failed: %w", errors.Join(errs...))
}

// attemptRung runs one rung and validates its output. The primary rung
// tries the context's exact direct solve before the backend. Fault
// injection applies only to the primary attempt, direct solve included: a
// forced breakdown skips the solve outright, a forced non-finite output
// corrupts the solution so the validation gate must catch it.
func attemptRung(b SolverBackend, ctx *SolveContext, primary bool) (linalg.Vector, error) {
	if primary && faultinject.Fire(faultinject.SolverBreakdown) {
		return nil, errors.New("faultinject: forced solver breakdown")
	}
	var x linalg.Vector
	if primary {
		x = ctx.solveDirect()
		ctx.directAnswered = x != nil
	}
	if x == nil {
		var err error
		if x, err = b.Solve(ctx); err != nil {
			return nil, err
		}
	}
	if primary && len(x) > 0 && faultinject.Fire(faultinject.SolverNonFinite) {
		x[0] = math.NaN()
	}
	if verr := validateSolve(ctx.A, ctx.B, x); verr != nil {
		ctx.directAnswered = false
		return nil, verr
	}
	return x, nil
}
