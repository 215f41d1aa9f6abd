package ctmc

// Exact block-triangular direct solve. The transient generators the SPN
// produces are nearly acyclic — absorption drives the state graph forward
// and only short partition/merge cycles knot a handful of states together —
// so linalg.BlockTriLU factors them exactly in one pass over the nonzeros
// plus a few tiny dense eliminations, and solves them in one topological
// sweep. That makes it the first rung of every "auto" transient solve
// (Chain.solveVia) and the first tier of the value-patched incremental
// re-solve (PatchedChain.Solve); both run the code below.
//
// The answer is exact up to rounding, and it is still checked: the true
// residual must reach the shared 1e-12 solver tolerance, with at most two
// iterative-refinement passes through the same factors. A pattern with a
// strongly connected component over directMaxBlock states declines the
// pattern for good, so it costs one O(nnz) Tarjan pass per chain and every
// later solve goes straight to the iterative rung. A singular diagonal
// block or refinement that stalls depends on the values, so it declines
// only the current values: a value-patched chain retries the direct solve
// after its next patch. Each decline is counted once, by reason, in
// repro_solver_direct_declines_total.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// directMaxBlock bounds the strongly-connected-component size the direct
// solve accepts (the paper models' largest cycles are a handful of states;
// 64 leaves generous headroom while keeping the dense diagonal blocks
// trivially cheap). blockTriBackend labels direct answers in the
// per-backend iteration accounting and the solve histograms.
const (
	directMaxBlock  = 64
	blockTriBackend = "blocktri-direct"
)

// directRefinePasses bounds the iterative-refinement passes a direct solve
// may spend reaching solverTol before it counts as stalled.
const directRefinePasses = 2

// directAnalyses counts symbolic analyses (linalg.AnalyzeBlockTri calls),
// so tests can pin that a pattern is analyzed only once: a declined one,
// and one shared by an anchor chain and its patched sessions.
var directAnalyses atomic.Uint64

// DirectAnalyses returns the cumulative number of symbolic analyses the
// exact direct solve has run.
func DirectAnalyses() uint64 { return directAnalyses.Load() }

// Direct-solve declines by reason. The registry counters are the only
// store; tests read them through these handles.
var (
	declinedSCC      = directDeclines("scc_too_large")
	declinedSingular = directDeclines("singular")
	declinedStalled  = directDeclines("stalled")
)

func directDeclines(reason string) *obs.Counter {
	return obs.Default().Counter("repro_solver_direct_declines_total",
		"Matrices the exact block-triangular direct solve declined, by reason; the iterative rung answers their solves.",
		obs.L("reason", reason))
}

// countDecline records why AnalyzeBlockTri or Refresh turned a matrix down.
// A shape mismatch is a caller bug, not a decline, and is not counted.
func countDecline(err error) {
	switch {
	case errors.Is(err, linalg.ErrBlockTooLarge):
		declinedSCC.Inc()
	case errors.Is(err, linalg.ErrSingularBlock):
		declinedSingular.Inc()
	}
}

// blockTriPattern is one sparsity pattern's symbolic analysis, run at most
// once and shared read-only by every matrix of the pattern: a chain's own
// solves and the solves of every patched chain cloned from it. proto is
// nil when the pattern was declined (an SCC over directMaxBlock).
type blockTriPattern struct {
	once  sync.Once
	proto *linalg.BlockTriLU
}

// analyze returns the pattern's symbolic analysis of a, running it on first
// use, or nil when the pattern is declined.
func (p *blockTriPattern) analyze(a *linalg.CSR) *linalg.BlockTriLU {
	p.once.Do(func() {
		directAnalyses.Add(1)
		f, err := linalg.AnalyzeBlockTri(a, directMaxBlock)
		if err != nil {
			countDecline(err)
			return
		}
		p.proto = f
	})
	return p.proto
}

// blockTriDirect is one matrix's direct-solve state: its numeric
// factorization over the pattern's shared analysis, or the record that the
// pattern or the current values were declined. Solves are serialized by mu
// (the factorization owns scratch space); the value-patched chain marks
// the factors stale after rewriting the matrix values, and the next solve
// refreshes them.
type blockTriDirect struct {
	mu       sync.Mutex
	pattern  *blockTriPattern // shared by every matrix of the pattern
	analyzed bool
	f        *linalg.BlockTriLU // nil before analysis and for a declined pattern
	stale    bool               // values changed since f was factored
	// failed records that the current values were declined (a singular
	// block or stalled refinement); new values clear it.
	failed bool
}

// invalidate records that the matrix values changed since the numeric
// factorization (the symbolic analysis stays valid: the pattern is fixed),
// which also lifts a decline of the old values.
func (d *blockTriDirect) invalidate() {
	d.mu.Lock()
	d.stale, d.failed = true, false
	d.mu.Unlock()
}

// declined reports whether the matrix was analyzed and its pattern or
// current values turned down, so callers that keep their own path for
// iterative solves can skip the direct attempt.
func (d *blockTriDirect) declined() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.analyzed && (d.f == nil || d.failed)
}

// solve returns the solution of a x = rhs and the number of refinement
// passes it took, or ok == false when the direct solve declines the
// matrix. The solution is written in xBuf when it has the right length,
// else in a fresh vector.
func (d *blockTriDirect) solve(a *linalg.CSR, rhs, xBuf linalg.Vector) (x linalg.Vector, passes int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.analyzed {
		d.analyzed = true
		// A declined pattern (an SCC over directMaxBlock) stays declined;
		// the iterative rung answers.
		if proto := d.pattern.analyze(a); proto != nil {
			d.f, d.stale = proto.Clone(), true
		}
	}
	if d.f == nil || d.failed {
		return nil, 0, false
	}
	if d.stale {
		d.stale = false
		if err := d.f.Refresh(a); err != nil {
			countDecline(err)
			d.failed = true
			return nil, 0, false
		}
	}
	n := len(rhs)
	x = xBuf
	if len(x) != n {
		x = linalg.NewVector(n)
	}
	d.f.Solve(x, rhs)
	bn := rhs.Norm2()
	if bn == 0 {
		bn = 1
	}
	var r, corr linalg.Vector // materialized only when refining
	for pass := 0; ; pass++ {
		if linalg.ResidualNorm(a, x, rhs)/bn <= solverTol {
			return x, pass, true
		}
		if pass == directRefinePasses {
			d.failed = true // stalled: decline these values
			declinedStalled.Inc()
			return nil, pass, false
		}
		if r == nil {
			r, corr = linalg.NewVector(n), linalg.NewVector(n)
		}
		a.MulVecTo(r, x)
		r.Sub(rhs, r)
		d.f.Solve(corr, r)
		x.AXPY(1, corr)
	}
}
