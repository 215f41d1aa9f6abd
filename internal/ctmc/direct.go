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
// strongly connected component over directMaxBlock states, a singular
// diagonal block, or refinement that stalls declines the direct solve for
// good on that matrix, so a declined pattern costs one O(nnz) Tarjan pass
// per chain and every later solve goes straight to the iterative rung.
// Each decline is counted once, by reason, in
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
// factorization over the pattern's shared analysis, made at most once, or
// the record that the matrix was declined. Solves are serialized by mu
// (the factorization owns scratch space); the value-patched chain marks
// the factors stale after rewriting the matrix values, and the next solve
// refreshes them.
type blockTriDirect struct {
	mu       sync.Mutex
	pattern  *blockTriPattern // shared by every matrix of the pattern
	analyzed bool
	f        *linalg.BlockTriLU // nil before analysis and once declined
	stale    bool
}

// invalidate records that the matrix values changed since the numeric
// factorization (the symbolic analysis stays valid: the pattern is fixed).
func (d *blockTriDirect) invalidate() {
	d.mu.Lock()
	d.stale = true
	d.mu.Unlock()
}

// declined reports whether the matrix was analyzed and turned down, so
// callers that keep their own path for iterative solves can skip the
// direct attempt.
func (d *blockTriDirect) declined() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.analyzed && d.f == nil
}

// solve returns the solution of a x = rhs and the number of refinement
// passes it took, or ok == false when the direct solve declines the
// matrix. The solution is written in xBuf when it has the right length,
// else in a fresh vector.
func (d *blockTriDirect) solve(a *linalg.CSR, rhs, xBuf linalg.Vector) (x linalg.Vector, passes int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case !d.analyzed:
		d.analyzed, d.stale = true, false
		// A declined pattern (an SCC over directMaxBlock) or a singular
		// block only says why the matrix is declined; the iterative rung
		// answers.
		proto := d.pattern.analyze(a)
		if proto == nil {
			return nil, 0, false
		}
		f := proto.Clone()
		if err := f.Refresh(a); err != nil {
			countDecline(err)
			return nil, 0, false
		}
		d.f = f
	case d.f == nil:
		return nil, 0, false
	case d.stale:
		d.stale = false
		if err := d.f.Refresh(a); err != nil {
			countDecline(err)
			d.f = nil
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
			d.f = nil // stalled: decline this matrix from now on
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
