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
	"sync/atomic"
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
	// one per matrix, so every solve of the same chain reuses them instead
	// of refactoring. A patched chain drops them on every PatchRates.
	iluSubOnce  sync.Once
	iluSub      *linalg.ILU0
	iluSubErr   error
	iluSubTOnce sync.Once
	iluSubT     *linalg.ILU0
	iluSubTErr  error

	// The exact block-triangular factorizations of the same two matrices,
	// the first rung of every "auto" solve (direct.go). Their symbolic
	// analyses are shared with every PatchedChain cloned from this chain.
	dirSub  blockTriDirect
	dirSubT blockTriDirect

	// patchOnce builds, at most once, what every PatchedChain cloned from
	// this chain shares (patch.go); patch publishes it for SharedPatchBytes.
	patchOnce sync.Once
	patch     atomic.Pointer[patchPattern]
	patchErr  error

	// The transient→absorbing entries the absorption split walks
	// (solution.go), built once per pattern and shared like patch.
	absOnce  sync.Once
	absTerms atomic.Pointer[absorptionTable]

	// solver is the explicit backend selected for this chain (nil routes
	// through DefaultSolverBackend).
	solver SolverBackend

	// patched marks a PatchedChain's working chain: its ILU(0)
	// factorizations count in Refactorizations.
	patched bool
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
		c.iluSubT, c.iluSubTErr = c.factorILU(c.subGeneratorT())
	})
	return c.iluSubT, c.iluSubTErr
}

// iluForSub lazily factors the transient sub-generator Q_TT (the
// all-starts reward system's matrix).
func (c *Chain) iluForSub() (*linalg.ILU0, error) {
	c.iluSubOnce.Do(func() {
		c.iluSub, c.iluSubErr = c.factorILU(c.subGenerator())
	})
	return c.iluSub, c.iluSubErr
}

// factorILU computes the ILU(0) factors of a, counting a patched chain's
// factorizations as refactorizations.
func (c *Chain) factorILU(a *linalg.CSR) (*linalg.ILU0, error) {
	if c.patched {
		refactorizations.Add(1)
	}
	return linalg.NewILU0(a)
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
	c.dirSub.pattern, c.dirSubT.pattern = new(blockTriPattern), new(blockTriPattern)
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

// directFactorWords is the predicted size of the exact block-triangular
// factors per transient state, in words: component id, row order, pivot,
// block and factor offsets, the in-block entry maps and the dense factor
// itself, for the singleton-dominated condensations of the paper's
// models, plus append slack.
const directFactorWords = 10

// SizeBytes estimates the bytes the chain holds once solved and analysed:
// the generator, the transient index maps, the solve state every auto
// solve builds — the transposed transient sub-generator Q_TT^T and the
// exact block-triangular factors of it — and the absorption split's table
// of transient→absorbing entries. These are predicted from the pattern (an
// O(nnz) count of Q_TT's entries) whether or not they have been built yet,
// so a chain charged before its first solve is charged for what that
// solve adds, and no lazily built field is read.
func (c *Chain) SizeBytes() int64 {
	const word, absorptionTerm = 8, 24
	n, nt := int64(c.n), int64(len(c.tRev))
	subNNZ := int64(c.subNNZ())
	size := csrBytes(n, int64(c.q.NNZ()))
	size += n + n*word + nt*word // absorbing, tIdx, tRev
	size += csrBytes(nt, subNNZ)
	size += (int64(c.q.NNZ()) - subNNZ) * absorptionTerm
	return size + nt*directFactorWords*word
}

// csrBytes is the footprint of a CSR with rows rows and nnz entries.
func csrBytes(rows, nnz int64) int64 { return (rows+1)*8 + nnz*16 }

// subNNZ counts the entries of Q_TT without building it.
func (c *Chain) subNNZ() int {
	nnz := 0
	for _, i := range c.tRev {
		for k := c.q.RowPtr[i]; k < c.q.RowPtr[i+1]; k++ {
			if c.tIdx[c.q.ColIdx[k]] >= 0 {
				nnz++
			}
		}
	}
	return nnz
}

// buildSub assembles Q_TT. The compact transient numbering preserves the
// order of the full numbering, so each restricted row is a filtered copy of
// the full row with columns still sorted — no builder, no sort.
func (c *Chain) buildSub() *linalg.CSR {
	nt := len(c.tRev)
	sub := &linalg.CSR{Rows: nt, Cols: nt, RowPtr: make([]int, nt+1)}
	nnz := c.subNNZ()
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

// solverTol and solverMaxIter are the shared iterative-solver settings.
const (
	solverTol     = 1e-12
	solverMaxIter = 40000
)

// solveVia routes one logical transient solve through the chain's selected
// backend, wrapped in the graceful-degradation ladder (degrade.go): the
// backend's result is validated (finite entries + residual gate) and a
// breakdown or invalid output falls back primary → ILU(0)-BiCGSTAB →
// dense LU, counted per backend in FallbacksByBackend. Under "auto" the
// primary rung first tries the exact block-triangular solve through direct
// (the chain-cached state of a) and, when that declines, ILU(0)-BiCGSTAB.
// ilu hands the backend the chain-cached ILU(0) factors of a.
func (c *Chain) solveVia(a *linalg.CSR, rhs linalg.Vector, ilu func() (*linalg.ILU0, error), direct *blockTriDirect) (linalg.Vector, error) {
	solveCount.Add(1)
	b := c.Solver()
	sctx := &SolveContext{A: a, B: rhs, ILU: ilu}
	if b.Name() == BackendAuto {
		b, sctx.direct = iluBiCGSTABBackend{}, direct
	}
	if !obs.Armed() {
		return solveDegrading(b, sctx)
	}
	// Armed: time the solve and record its iteration count. The count
	// lives inside the already-heap-allocated context, so arming adds
	// clock reads and atomic stores but no allocation.
	start := time.Now()
	x, err := solveDegrading(b, sctx)
	label := b.Name()
	if sctx.directAnswered {
		label = blockTriBackend
	}
	observeSolve(label, time.Since(start).Seconds(), sctx.iters)
	return x, err
}

// SojournTimes returns, for a chain started in state init, the expected
// total time y[j] spent in each state j before absorption. Absorbing states
// have y[j] = 0. This single solve yields MTTA (sum of y), any accumulated
// reward (dot product with a reward vector), and absorption splits.
func (c *Chain) SojournTimes(init int) (linalg.Vector, error) {
	at, rhs, y, done, err := c.transientSystem(init, nil, nil)
	if done || err != nil {
		return y, err
	}
	sol, err := c.solveVia(at, rhs, c.iluForSubT, &c.dirSubT)
	if err != nil {
		return nil, err
	}
	c.expandTransient(y, sol)
	return y, nil
}

// transientSystem prepares the transposed transient sojourn system for a
// chain started in init: A = Q_TT^T and rhs = -e_init (compact numbering).
// When no solve is needed (absorbing start, empty transient set) it
// returns done == true with the zero sojourn vector. y and rhs are built in
// yBuf and rhsBuf when they have the right lengths, else allocated.
func (c *Chain) transientSystem(init int, yBuf, rhsBuf linalg.Vector) (at *linalg.CSR, rhs, y linalg.Vector, done bool, err error) {
	if init < 0 || init >= c.n {
		return nil, nil, nil, false, fmt.Errorf("ctmc: initial state %d out of range", init)
	}
	y = zeroed(yBuf, c.n)
	if c.absorbing[init] || len(c.tRev) == 0 {
		return nil, nil, y, true, nil
	}
	if len(c.tRev) == c.n {
		// Fail fast: with no absorbing state Q_TT is singular and the
		// sojourn times are infinite; don't burn the solve ladder.
		return nil, nil, nil, false, fmt.Errorf("ctmc: chain has no absorbing states; MTTA is infinite")
	}
	at = c.subGeneratorT()
	rhs = zeroed(rhsBuf, len(c.tRev))
	rhs[c.tIdx[init]] = -1
	return at, rhs, y, false, nil
}

// zeroed returns buf cleared when it has length n, else a new zero vector.
func zeroed(buf linalg.Vector, n int) linalg.Vector {
	if len(buf) != n {
		return linalg.NewVector(n)
	}
	clear(buf)
	return buf
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
	sol, err := c.solveVia(a, rhs, c.iluForSub, &c.dirSub)
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
	sol, err := c.solveVia(c.subGeneratorT(), rhs, c.iluForSubT, &c.dirSubT)
	if err != nil {
		return nil, err
	}
	for ti, i := range c.tRev {
		x[i] = sol[ti]
	}
	return x, nil
}
