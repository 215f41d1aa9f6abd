// Package ctmc analyzes the continuous-time Markov chains produced by the
// SPN reachability graph: mean time to absorption (the paper's MTTSF),
// expected accumulated reward until absorption (the numerator of Ĉtotal),
// absorption-probability splits (which failure condition, C1 or C2, ended
// the mission), transient state probabilities via uniformization, and
// steady-state distributions for ergodic chains.
package ctmc

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/spn"
)

// Chain is a finite-state CTMC with (possibly zero) absorbing states.
type Chain struct {
	n         int
	q         *linalg.CSR // full generator; absorbing rows are all zero
	absorbing []bool
	// transient index mapping: full state -> compact transient index or -1
	tIdx []int
	tRev []int // compact transient index -> full state

	// The transient sub-generator Q_TT and its transpose are built at most
	// once per chain: transient solves, sojourn solves, and all-starts
	// reward solves on the same chain share them instead of rebuilding.
	subOnce  sync.Once
	sub      *linalg.CSR
	subTOnce sync.Once
	subT     *linalg.CSR

	// ILU(0) factors are cached alongside the sub-generators they factor,
	// one per matrix, so every sweep point and warm-started solve of the
	// same chain reuses them instead of refactoring.
	iluSubOnce  sync.Once
	iluSub      *linalg.ILU0
	iluSubErr   error
	iluSubTOnce sync.Once
	iluSubT     *linalg.ILU0
	iluSubTErr  error

	// The exact block-triangular factorizations of the same two matrices,
	// the first rung of every "auto" solve (direct.go).
	dirSub  blockTriDirect
	dirSubT blockTriDirect

	// solver is the explicit backend selected for this chain (nil routes
	// through DefaultSolverBackend).
	solver SolverBackend
}

// SetSolver pins the linear-solver backend this chain's transient solves
// run through; nil restores the process default. Call before the first
// solve — the backend is an execution policy, so switching mid-chain only
// affects subsequent solves, never already-memoized solutions.
func (c *Chain) SetSolver(b SolverBackend) { c.solver = b }

// Solver returns the backend this chain solves with.
func (c *Chain) Solver() SolverBackend {
	if c.solver != nil {
		return c.solver
	}
	return DefaultSolverBackend()
}

// iluForSubT lazily factors the transposed transient sub-generator (the
// sojourn system's matrix), caching factors and error on the chain.
func (c *Chain) iluForSubT() (*linalg.ILU0, error) {
	c.iluSubTOnce.Do(func() {
		c.iluSubT, c.iluSubTErr = linalg.NewILU0(c.subGeneratorT())
	})
	return c.iluSubT, c.iluSubTErr
}

// iluForSub lazily factors the transient sub-generator Q_TT (the
// all-starts reward system's matrix).
func (c *Chain) iluForSub() (*linalg.ILU0, error) {
	c.iluSubOnce.Do(func() {
		c.iluSub, c.iluSubErr = linalg.NewILU0(c.subGenerator())
	})
	return c.iluSub, c.iluSubErr
}

// FromGraph converts an SPN reachability graph into a CTMC. The graph's
// edges are already grouped by source state, so the generator is assembled
// directly in CSR form (linalg.NewCSRFromRows) without the coordinate sort
// a SparseBuilder would pay.
func FromGraph(g *spn.Graph) *Chain {
	sp := obs.StartStage(obs.StageAssemble)
	defer sp.End()
	n := g.NumStates()
	absorbing := make([]bool, n)
	entries := make([]linalg.Coord, 0, g.NumEdges()+n)
	for i := 0; i < n; i++ {
		if g.IsAbsorbing(i) {
			absorbing[i] = true
			continue
		}
		exit := 0.0
		for _, e := range g.Edges[i] {
			if e.To == i {
				continue // self loops do not affect the CTMC generator
			}
			if e.Rate != 0 {
				entries = append(entries, linalg.Coord{Row: i, Col: e.To, Val: e.Rate})
			}
			exit += e.Rate
		}
		if exit > 0 {
			entries = append(entries, linalg.Coord{Row: i, Col: i, Val: -exit})
		} else {
			absorbing[i] = true // only self-loops: stochastically absorbing
		}
	}
	return newChain(linalg.NewCSRFromRows(n, n, entries), absorbing)
}

// NewChain builds a chain from an explicit generator matrix. Rows whose
// entries are all zero are treated as absorbing. Off-diagonal entries must
// be non-negative and each row must sum to (approximately) zero.
func NewChain(q *linalg.CSR) (*Chain, error) {
	if q.Rows != q.Cols {
		return nil, fmt.Errorf("ctmc: generator must be square, got %dx%d", q.Rows, q.Cols)
	}
	n := q.Rows
	absorbing := make([]bool, n)
	for i := 0; i < n; i++ {
		lo, hi := q.RowPtr[i], q.RowPtr[i+1]
		if lo == hi {
			absorbing[i] = true
			continue
		}
		sum, diag := 0.0, 0.0
		for k := lo; k < hi; k++ {
			j, v := q.ColIdx[k], q.Val[k]
			sum += v
			if j == i {
				diag = v
			} else if v < 0 {
				return nil, fmt.Errorf("ctmc: negative off-diagonal rate q[%d][%d]=%v", i, j, v)
			}
		}
		if math.Abs(sum) > 1e-9*math.Max(1, math.Abs(diag)) {
			return nil, fmt.Errorf("ctmc: row %d sums to %v, want 0", i, sum)
		}
	}
	return newChain(q, absorbing), nil
}

func newChain(q *linalg.CSR, absorbing []bool) *Chain {
	n := q.Rows
	c := &Chain{n: n, q: q, absorbing: absorbing, tIdx: make([]int, n)}
	for i := 0; i < n; i++ {
		if absorbing[i] {
			c.tIdx[i] = -1
		} else {
			c.tIdx[i] = len(c.tRev)
			c.tRev = append(c.tRev, i)
		}
	}
	return c
}

// NumStates returns the total number of states.
func (c *Chain) NumStates() int { return c.n }

// NumTransient returns the number of non-absorbing states.
func (c *Chain) NumTransient() int { return len(c.tRev) }

// IsAbsorbing reports whether state i is absorbing.
func (c *Chain) IsAbsorbing(i int) bool { return c.absorbing[i] }

// Generator returns the underlying generator matrix (shared, do not mutate).
func (c *Chain) Generator() *linalg.CSR { return c.q }

// subGeneratorT returns the transpose of the transient-restricted
// sub-generator Q_TT, used by the sojourn-time solve. Built once per chain
// (an O(nnz) counting-sort transpose of Q_TT) and reused by every
// subsequent solve. Q_TT itself is only kept when a caller asks for it
// (subGenerator): the sojourn path needs just the transpose, so a cached
// chain does not carry both.
func (c *Chain) subGeneratorT() *linalg.CSR {
	c.subTOnce.Do(func() {
		c.subT = c.buildSub().Transpose()
	})
	return c.subT
}

// subGenerator returns the transient-restricted sub-generator Q_TT, built
// once per chain.
func (c *Chain) subGenerator() *linalg.CSR {
	c.subOnce.Do(func() {
		c.sub = c.buildSub()
	})
	return c.sub
}

// buildSub assembles Q_TT. The compact transient numbering preserves the
// order of the full numbering, so each restricted row is a filtered copy of
// the full row with columns still sorted — no builder, no sort.
func (c *Chain) buildSub() *linalg.CSR {
	nt := len(c.tRev)
	sub := &linalg.CSR{Rows: nt, Cols: nt, RowPtr: make([]int, nt+1)}
	nnz := 0
	for _, i := range c.tRev {
		for k := c.q.RowPtr[i]; k < c.q.RowPtr[i+1]; k++ {
			if c.tIdx[c.q.ColIdx[k]] >= 0 {
				nnz++
			}
		}
	}
	sub.ColIdx = make([]int, 0, nnz)
	sub.Val = make([]float64, 0, nnz)
	for ti, i := range c.tRev {
		for k := c.q.RowPtr[i]; k < c.q.RowPtr[i+1]; k++ {
			if tj := c.tIdx[c.q.ColIdx[k]]; tj >= 0 {
				sub.ColIdx = append(sub.ColIdx, tj)
				sub.Val = append(sub.Val, c.q.Val[k])
			}
		}
		sub.RowPtr[ti+1] = len(sub.ColIdx)
	}
	return sub
}

// solverTol and solverMaxIter are the shared cascade settings.
const (
	solverTol     = 1e-12
	solverMaxIter = 40000
)

// solveVia routes one logical transient solve through the chain's selected
// backend, wrapped in the graceful-degradation ladder: the backend's result
// is validated (finite entries + residual gate) and a breakdown or invalid
// output falls back primary → sor-cascade → dense LU, counted per backend
// in FallbacksByBackend. Under "auto" the primary rung first tries the
// exact block-triangular solve through direct (the chain-cached state of
// a) and, when that declines, the iterative backend picked by system size.
// ilu hands the backend the chain-cached ILU(0) factors of a. Warm-start
// guesses change iteration counts, not answers: every accepted solution
// passed the same residual gate.
func (c *Chain) solveVia(a *linalg.CSR, rhs, x0 linalg.Vector, ilu func() (*linalg.ILU0, error), direct *blockTriDirect) (linalg.Vector, error) {
	solveCount.Add(1)
	sel := c.Solver()
	b := resolveBackend(sel, a)
	sctx := &SolveContext{A: a, B: rhs, X0: x0, ILU: ilu}
	if sel.Name() == BackendAuto {
		sctx.direct = direct
	}
	if !obs.Armed() {
		return solveDegrading(b, sctx)
	}
	// Armed: time the solve and capture its iteration count. The sink
	// lives inside the already-heap-allocated context, so arming adds
	// clock reads and atomic stores but no allocation.
	sctx.Iters = &sctx.itersLocal
	start := time.Now()
	x, err := solveDegrading(b, sctx)
	label := b.Name()
	if sctx.directAnswered {
		label = blockTriBackend
	}
	observeSolve(label, time.Since(start).Seconds(), sctx.itersLocal)
	return x, err
}

// cascade is the counter-free solver body (SOR -> BiCGSTAB -> dense LU);
// callers account one SolveCount per logical transient solve themselves.
func cascade(ctx *SolveContext) (linalg.Vector, error) {
	x, res, err := linalg.SolveSOR(ctx.A, ctx.B, linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter, X0: ctx.X0})
	ctx.countIters(BackendSORCascade, uint64(res.Iterations))
	if err == nil {
		return x, nil
	}
	return cascadeTail(ctx, err)
}

// cascadeTail is the cascade after a failed full-budget SOR attempt
// (BiCGSTAB, then dense LU for small systems). The sweep solver enters
// here directly when its ω = 1 calibration attempt — already an identical
// full-budget SOR run — failed, rather than paying the same 40k sweeps
// twice.
func cascadeTail(ctx *SolveContext, sorErr error) (linalg.Vector, error) {
	x, res, err2 := linalg.SolveBiCGSTAB(ctx.A, ctx.B, linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter, X0: ctx.X0})
	ctx.countIters(BackendSORCascade, uint64(res.Iterations))
	if err2 == nil {
		return x, nil
	}
	if ctx.A.Rows <= denseRescueMax {
		xd, err3 := linalg.SolveDense(ctx.A.Dense(), ctx.B)
		if err3 == nil {
			return xd, nil
		}
	}
	return nil, fmt.Errorf("ctmc: linear solve failed: SOR %v; BiCGSTAB %v", sorErr, err2)
}

// SojournTimes returns, for a chain started in state init, the expected
// total time y[j] spent in each state j before absorption. Absorbing states
// have y[j] = 0. This single solve yields MTTA (sum of y), any accumulated
// reward (dot product with a reward vector), and absorption splits.
func (c *Chain) SojournTimes(init int) (linalg.Vector, error) {
	return c.SojournTimesFrom(init, nil)
}

// SojournTimesFrom is SojournTimes with an optional warm-start guess: warm
// is a previous full-length sojourn vector, expected to come from a chain
// with the same state numbering (the sweep drivers guarantee that — grid
// points differ in rates, not reachability). A vector of any other length
// is silently ignored; a vector that matches in length but came from a
// structurally different chain only degrades the starting iterate, never
// the answer, since every solve converges to the same 1e-12 residual.
func (c *Chain) SojournTimesFrom(init int, warm linalg.Vector) (linalg.Vector, error) {
	at, rhs, y, done, err := c.transientSystem(init)
	if done || err != nil {
		return y, err
	}
	sol, err := c.solveVia(at, rhs, c.compactWarm(warm), c.iluForSubT, &c.dirSubT)
	if err != nil {
		return nil, err
	}
	c.expandTransient(y, sol)
	return y, nil
}

// transientSystem prepares the transposed transient sojourn system for a
// chain started in init: A = Q_TT^T and rhs = -e_init (compact numbering).
// When no solve is needed (absorbing start, empty transient set) it
// returns done == true with the zero sojourn vector.
func (c *Chain) transientSystem(init int) (at *linalg.CSR, rhs, y linalg.Vector, done bool, err error) {
	if init < 0 || init >= c.n {
		return nil, nil, nil, false, fmt.Errorf("ctmc: initial state %d out of range", init)
	}
	y = linalg.NewVector(c.n)
	if c.absorbing[init] || len(c.tRev) == 0 {
		return nil, nil, y, true, nil
	}
	if len(c.tRev) == c.n {
		// Fail fast: with no absorbing state Q_TT is singular and the
		// sojourn times are infinite; don't burn the solver cascade.
		return nil, nil, nil, false, fmt.Errorf("ctmc: chain has no absorbing states; MTTA is infinite")
	}
	at = c.subGeneratorT()
	rhs = linalg.NewVector(len(c.tRev))
	rhs[c.tIdx[init]] = -1
	return at, rhs, y, false, nil
}

// compactWarm maps a full-length warm-start sojourn vector onto the
// compact transient numbering, or returns nil (cold start) when the shape
// does not match this chain.
func (c *Chain) compactWarm(warm linalg.Vector) linalg.Vector {
	if len(warm) != c.n {
		return nil
	}
	x0 := linalg.NewVector(len(c.tRev))
	for ti, i := range c.tRev {
		x0[ti] = warm[i]
	}
	return x0
}

// expandTransient scatters a compact transient solution into the
// full-length sojourn vector y, clamping tiny negative solver noise.
func (c *Chain) expandTransient(y, sol linalg.Vector) {
	for ti, i := range c.tRev {
		v := sol[ti]
		if v < 0 && v > -1e-9 {
			v = 0 // numerical noise
		}
		y[i] = v
	}
}

// MeanTimeToAbsorption returns the expected time until the chain started in
// init reaches any absorbing state. It returns an error if no absorbing
// state is reachable (infinite expectation). One linear solve; callers that
// need more than one absorption metric should use Solve once and derive
// them from the Solution.
func (c *Chain) MeanTimeToAbsorption(init int) (float64, error) {
	if len(c.tRev) == c.n {
		return 0, fmt.Errorf("ctmc: chain has no absorbing states; MTTA is infinite")
	}
	s, err := c.Solve(init)
	if err != nil {
		return 0, err
	}
	return s.MeanTimeToAbsorption()
}

// AccumulatedReward returns E[∫ r(X_t) dt until absorption | X_0 = init]
// for a per-state reward-rate vector r of length NumStates. One linear
// solve; prefer Solve + Solution.AccumulatedReward when combining metrics.
func (c *Chain) AccumulatedReward(init int, reward linalg.Vector) (float64, error) {
	if len(reward) != c.n {
		return 0, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), c.n)
	}
	s, err := c.Solve(init)
	if err != nil {
		return 0, err
	}
	return s.AccumulatedReward(reward)
}

// AbsorptionProbabilities returns, for each absorbing state a, the
// probability that the chain started in init is absorbed in a. One linear
// solve; prefer Solve + Solution.AbsorptionProbabilities when combining
// metrics.
func (c *Chain) AbsorptionProbabilities(init int) (map[int]float64, error) {
	s, err := c.Solve(init)
	if err != nil {
		return nil, err
	}
	return s.AbsorptionProbabilities(), nil
}

// ExpectedRewardAllStarts solves Q_TT w = -r restricted to transient states
// and returns w expanded over all states: w[i] is the expected accumulated
// reward until absorption starting from i. With r = 1 this is the MTTA from
// every state at the cost of one solve.
func (c *Chain) ExpectedRewardAllStarts(reward linalg.Vector) (linalg.Vector, error) {
	if len(reward) != c.n {
		return nil, fmt.Errorf("ctmc: reward vector length %d, want %d", len(reward), c.n)
	}
	w := linalg.NewVector(c.n)
	if len(c.tRev) == 0 {
		return w, nil
	}
	a := c.subGenerator()
	rhs := linalg.NewVector(len(c.tRev))
	for ti, i := range c.tRev {
		rhs[ti] = -reward[i]
	}
	sol, err := c.solveVia(a, rhs, nil, c.iluForSub, &c.dirSub)
	if err != nil {
		return nil, err
	}
	for ti, i := range c.tRev {
		w[i] = sol[ti]
	}
	return w, nil
}

// SolveSubTT solves Q_TT^T x = rhs for an arbitrary full-length right-hand
// side (entries on absorbing states are ignored) and returns x expanded
// over all states, with zeros on absorbing states. This is the primitive
// behind forward-sensitivity solves — the same cached sub-generator
// transpose and ILU(0) factors as the sojourn solve, applied to the
// directional system A·dy = -(∂A/∂θ)·y. No sign clamping is applied:
// unlike sojourn times, directional derivatives are legitimately negative.
func (c *Chain) SolveSubTT(rhsFull linalg.Vector) (linalg.Vector, error) {
	if len(rhsFull) != c.n {
		return nil, fmt.Errorf("ctmc: rhs length %d, want %d", len(rhsFull), c.n)
	}
	x := linalg.NewVector(c.n)
	if len(c.tRev) == 0 {
		return x, nil
	}
	rhs := linalg.NewVector(len(c.tRev))
	for ti, i := range c.tRev {
		rhs[ti] = rhsFull[i]
	}
	sol, err := c.solveVia(c.subGeneratorT(), rhs, nil, c.iluForSubT, &c.dirSubT)
	if err != nil {
		return nil, err
	}
	for ti, i := range c.tRev {
		x[i] = sol[ti]
	}
	return x, nil
}
