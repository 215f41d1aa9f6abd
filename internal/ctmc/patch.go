package ctmc

// Value-only generator patching: the incremental re-solve path. A sweep of
// rate-only neighbouring configurations shares one reachability graph, so
// the CSR *patterns* of Q, Q_TT, and Q_TT^T — and the transient index
// mapping — are invariants of the family; only the values change. A
// PatchedChain owns a working Chain whose pattern arrays alias a fully
// prepared donor chain's while its value arrays are private, plus the
// one-time scatter maps that rewrite all three value arrays in place from
// a re-rated graph: no re-assembly, no re-transpose, no refactorization.
//
// The solve itself is two-tier. The first tier is the exact
// block-triangular solve every "auto" full solve starts with (direct.go):
// the SCC condensation and block layout are symbolic, computed once per
// pattern, and each patch only marks the numeric factors stale, so the
// next solve re-extracts the tiny dense diagonal blocks in O(nnz) before a
// single topological sweep. Patterns too cyclic for that — or a singular
// block at the patched rates — drop to the second tier:
//
// The donor's ILU(0) factors ride along as a *frozen preconditioner*: an
// ILU factorization of a nearby matrix is still an effective (approximate)
// preconditioner for the patched system — Krylov methods pay iterations
// for preconditioner error, never accuracy (every backend converges to the
// shared 1e-12 relative residual). The factors are refreshed only when the
// value drift since factorization exceeds a budget or a solve's measured
// iteration count blows past the post-factorization baseline; a solve
// failure refactors once and retries before surfacing the error (the
// caller's hard fallback is a full re-prepare).

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/spn"
)

// Process-wide incremental-path accounting, exported through the engine's
// stats surface (`patched_solves`, `refactorizations` on /v1/stats).
var (
	patchedSolves    atomic.Uint64
	refactorizations atomic.Uint64
)

// PatchedSolves returns the cumulative number of transient solves served
// through the value-patched incremental path.
func PatchedSolves() uint64 { return patchedSolves.Load() }

// Refactorizations returns how many times the incremental path had to
// refresh its frozen ILU(0) preconditioner. A healthy dense sweep keeps
// this far below PatchedSolves.
func Refactorizations() uint64 { return refactorizations.Load() }

// Preconditioner-reuse budgets. driftBudget bounds the relative L1 value
// drift |A - A_frozen| / |A_frozen| the frozen factors are trusted across
// (ILU(0) quality degrades gracefully with drift; 50% is far past where a
// refresh pays for itself on the paper's operators but cheap insurance
// against a sweep wandering into a different rate regime). iterBudget
// bounds one solve's measured iterations against the first solve after the
// last factorization — the direct observable of preconditioner decay.
const (
	patchDriftBudget = 0.5
	patchIterFactor  = 3
	patchIterSlack   = 24
)

// PatchedChain is a Chain whose generator values can be rewritten in place
// against the cached CSR pattern of a donor chain. Not safe for concurrent
// use: it is the per-sweep mutable counterpart of an immutable Prepared
// chain, and a Solution it produces is only valid until the next
// PatchRates call mutates the working arrays under it.
type PatchedChain struct {
	chain *Chain // working chain: shared pattern, private values

	// DisableDirect forces every solve down the frozen-ILU Krylov tier,
	// skipping the exact block-triangular one (the working chain's
	// dirSubT, shared with its own Chain-path solves). Escape hatch and
	// test seam (the refactorization-budget properties are pinned through
	// it); leave false in production.
	DisableDirect bool

	// Frozen ILU(0) state: the donor whose factors are adopted on first
	// need (nil once adopted), the factors currently installed on the
	// working chain, the subT values they were computed from (for the
	// drift heuristic), and the iteration baseline of the first solve
	// after the last factorization.
	donor         *Chain
	frozen        *linalg.ILU0
	frozenVals    []float64
	frozenNorm    float64
	baselineIters uint64
	noRefactor    bool // a refactorization attempt failed; stop trying

	// One-time scatter maps, built against the donor's pattern:
	// edgeSlot[k] is the q.Val index of the k-th non-self edge of a
	// non-absorbing state (graph iteration order), diagSlot the diagonal
	// index per non-absorbing state (same order), subToQ maps Q_TT value
	// indices into q.Val, subTPerm maps them on into Q_TT^T's value array
	// (replaying the counting-sort transpose scatter).
	edgeSlot []int
	diagSlot []int
	subToQ   []int
	subTPerm []int
	nEdges   int
}

// NewPatchedChain builds the incremental re-solve seam over a fully
// prepared donor: the donor chain's transposed sub-generator is forced, a
// working chain is cloned with shared patterns and private value arrays,
// and the edge→CSR scatter maps are precomputed from g — the graph the
// donor was assembled from. The donor's ILU(0) factors become the initial
// frozen preconditioner on the first solve that needs the Krylov tier. The
// donor itself is never mutated and stays valid.
func NewPatchedChain(donor *Chain, g *spn.Graph) (*PatchedChain, error) {
	if g.NumStates() != donor.n {
		return nil, fmt.Errorf("ctmc: graph has %d states, donor chain %d", g.NumStates(), donor.n)
	}
	donorSubT := donor.subGeneratorT()

	w := &Chain{
		n:         donor.n,
		q:         shareValuesCopy(donor.q),
		absorbing: donor.absorbing,
		tIdx:      donor.tIdx,
		tRev:      donor.tRev,
		solver:    donor.solver,
	}
	w.sub = donor.buildSub() // private, and not cached on the donor
	w.subT = shareValuesCopy(donorSubT)
	// The lazily-built members are pre-seeded, so mark their once-cells
	// consumed; later refactorizations update the fields directly (the
	// patched chain is single-goroutine by contract).
	w.subOnce.Do(func() {})
	w.subTOnce.Do(func() {})

	pc := &PatchedChain{chain: w, donor: donor, nEdges: g.NumEdges()}
	if err := pc.buildScatterMaps(g); err != nil {
		return nil, err
	}
	return pc, nil
}

// Chain returns the working chain. Its generator values reflect the last
// PatchRates call; treat it as read-only and only until the next patch.
func (pc *PatchedChain) Chain() *Chain { return pc.chain }

// shareValuesCopy clones a CSR with shared (immutable) pattern arrays and
// a private value array.
func shareValuesCopy(m *linalg.CSR) *linalg.CSR {
	return &linalg.CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: m.RowPtr,
		ColIdx: m.ColIdx,
		Val:    append([]float64(nil), m.Val...),
	}
}

func norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// buildScatterMaps precomputes every index translation PatchRates needs,
// so each patch is a pure gather/scatter with no searching.
func (pc *PatchedChain) buildScatterMaps(g *spn.Graph) error {
	c := pc.chain
	q := c.q
	pc.diagSlot = make([]int, 0, len(c.tRev))
	for i := 0; i < c.n; i++ {
		if c.absorbing[i] {
			continue
		}
		lo, hi := q.RowPtr[i], q.RowPtr[i+1]
		row := q.ColIdx[lo:hi]
		find := func(col int) (int, bool) {
			k := sort.SearchInts(row, col)
			if k == len(row) || row[k] != col {
				return 0, false
			}
			return lo + k, true
		}
		for _, e := range g.Edges[i] {
			if e.To == i {
				continue
			}
			slot, ok := find(e.To)
			if !ok {
				return fmt.Errorf("ctmc: graph edge %d->%d has no slot in the cached generator pattern", i, e.To)
			}
			pc.edgeSlot = append(pc.edgeSlot, slot)
		}
		slot, ok := find(i)
		if !ok {
			return fmt.Errorf("ctmc: transient state %d stores no diagonal entry", i)
		}
		pc.diagSlot = append(pc.diagSlot, slot)
	}

	// Q_TT gathers from Q by replaying subGenerator's filtered row copy.
	sub, subT := c.sub, c.subT
	pc.subToQ = make([]int, 0, len(sub.Val))
	for _, i := range c.tRev {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if c.tIdx[q.ColIdx[k]] >= 0 {
				pc.subToQ = append(pc.subToQ, k)
			}
		}
	}
	if len(pc.subToQ) != len(sub.Val) {
		return fmt.Errorf("ctmc: sub-generator scatter map has %d entries, want %d", len(pc.subToQ), len(sub.Val))
	}

	// Q_TT^T scatters from Q_TT by replaying the counting-sort transpose.
	pc.subTPerm = make([]int, len(sub.Val))
	next := append([]int(nil), subT.RowPtr[:subT.Rows]...)
	for k, j := range sub.ColIdx {
		pc.subTPerm[k] = next[j]
		next[j]++
	}
	return nil
}

// PatchRates rewrites the working chain's Q, Q_TT, and Q_TT^T values in
// place from a re-rated graph with the same edge topology the chain was
// built from (spn.Graph.Rerate guarantees that or fails). A non-positive
// edge rate or a vanished exit rate means the change was structural after
// all; the error tells the caller to fall back to a full re-prepare, and
// the working values are unspecified until a successful re-patch.
func (pc *PatchedChain) PatchRates(g *spn.Graph) error {
	c := pc.chain
	q := c.q
	if g.NumStates() != c.n || g.NumEdges() != pc.nEdges {
		return fmt.Errorf("ctmc: patch graph shape (%d states, %d edges) does not match the cached pattern (%d, %d)",
			g.NumStates(), g.NumEdges(), c.n, pc.nEdges)
	}
	ei, di := 0, 0
	for i := 0; i < c.n; i++ {
		if c.absorbing[i] {
			if len(g.Edges[i]) > 0 {
				for _, e := range g.Edges[i] {
					if e.To != i {
						return fmt.Errorf("ctmc: absorbing state %d grew a real edge; structural change", i)
					}
				}
			}
			continue
		}
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			q.Val[k] = 0
		}
		exit := 0.0
		for _, e := range g.Edges[i] {
			if e.To == i {
				continue
			}
			if e.Rate <= 0 {
				return fmt.Errorf("ctmc: edge %d->%d re-rated to %v; structural change", i, e.To, e.Rate)
			}
			q.Val[pc.edgeSlot[ei]] += e.Rate
			ei++
			exit += e.Rate
		}
		if exit <= 0 {
			return fmt.Errorf("ctmc: transient state %d lost its exit rate; structural change", i)
		}
		q.Val[pc.diagSlot[di]] = -exit
		di++
	}
	sub, subT := c.sub, c.subT
	for k, qk := range pc.subToQ {
		v := q.Val[qk]
		sub.Val[k] = v
		subT.Val[pc.subTPerm[k]] = v
	}
	c.dirSub.invalidate()
	c.dirSubT.invalidate()
	return nil
}

// frozenILU is the ILU accessor handed to solver backends: the currently
// installed frozen factors, never a fresh factorization.
func (pc *PatchedChain) frozenILU() (*linalg.ILU0, error) {
	if pc.frozen == nil {
		return nil, errNoFrozenILU
	}
	return pc.frozen, nil
}

// errNoFrozenILU tells a Krylov backend that neither the donor's factors
// nor a refactorization are available, so it falls back to its cascade.
var errNoFrozenILU = errors.New("ctmc: no frozen ILU(0) factors for the patched system")

// adoptDonorILU installs the donor's ILU(0) factors as the frozen
// preconditioner the first time the Krylov tier runs: a session whose
// solves all take the exact tier never pays for (or keeps) them.
func (pc *PatchedChain) adoptDonorILU() {
	donor := pc.donor
	if donor == nil {
		return
	}
	pc.donor = nil
	f, err := donor.iluForSubT()
	if err != nil {
		return // frozen stays nil: the caller refactors from current values
	}
	pc.install(f)
	pc.frozenVals = append(pc.frozenVals[:0], donor.subGeneratorT().Val...)
	pc.frozenNorm = norm1(pc.frozenVals)
}

// install makes f the frozen preconditioner of the Krylov tier and of the
// working chain's own solves.
func (pc *PatchedChain) install(f *linalg.ILU0) {
	pc.frozen = f
	c := pc.chain
	c.iluSubTOnce.Do(func() {})
	c.iluSubT, c.iluSubTErr = f, nil
}

// refactor refreshes the frozen preconditioner from the working chain's
// current Q_TT^T values. A factorization failure permanently disables
// refactoring (the backends' internal cascade fallback still guarantees
// correct answers).
func (pc *PatchedChain) refactor() {
	if pc.noRefactor {
		return
	}
	f, err := linalg.NewILU0(pc.chain.subT)
	if err != nil {
		pc.noRefactor = true
		return
	}
	refactorizations.Add(1)
	pc.install(f)
	pc.frozenVals = append(pc.frozenVals[:0], pc.chain.subT.Val...)
	pc.frozenNorm = norm1(pc.frozenVals)
	pc.baselineIters = 0
}

// drift returns the relative L1 distance between the working Q_TT^T values
// and the ones the frozen factors were computed from.
func (pc *PatchedChain) drift() float64 {
	if pc.frozenVals == nil || pc.frozenNorm == 0 {
		return math.Inf(1)
	}
	d := 0.0
	for k, v := range pc.chain.subT.Val {
		d += math.Abs(v - pc.frozenVals[k])
	}
	return d / pc.frozenNorm
}

// Solve runs the sojourn solve for the patched system, warm-started from a
// previous full-length sojourn vector (nil for cold; the direct tier
// ignores it — an exact sweep has no iterate to improve). The exact
// block-triangular tier takes the solve when the pattern admits it;
// otherwise the frozen ILU(0) factors precondition a Krylov solve and are
// refreshed before it when value drift exceeds the budget, after it when
// the measured iteration count blows past the post-factorization baseline,
// and on a solve failure the refactor+retry happens once before the error
// escapes. The returned Solution aliases the working chain: consume it
// before the next PatchRates call.
func (pc *PatchedChain) Solve(init int, warm linalg.Vector) (*Solution, error) {
	c := pc.chain
	at, rhs, y, done, err := c.transientSystem(init)
	if err != nil {
		return nil, err
	}
	if done {
		return &Solution{chain: c, init: init, y: y}, nil
	}
	if !pc.DisableDirect {
		sol, passes, ok := c.dirSubT.solve(at, rhs)
		addSolveIters(blockTriBackend, uint64(passes))
		if ok {
			solveCount.Add(1)
			patchedSolves.Add(1)
			c.expandTransient(y, sol)
			return &Solution{chain: c, init: init, y: y}, nil
		}
	}
	b := resolveBackend(c.Solver(), at)
	krylov := b.Name() != BackendSORCascade
	if krylov {
		pc.adoptDonorILU()
		if pc.frozen == nil || pc.drift() > patchDriftBudget {
			pc.refactor()
		}
	}
	x0 := c.compactWarm(warm)
	run := func() (linalg.Vector, uint64, error) {
		var iters uint64
		solveCount.Add(1)
		sol, err := b.Solve(&SolveContext{A: at, B: rhs, X0: x0, ILU: pc.frozenILU, Iters: &iters})
		return sol, iters, err
	}
	sol, iters, err := run()
	if err == nil {
		// Same admission gate as the degradation ladder: a patched system
		// solved against frozen factors must still produce a finite vector
		// within the residual gate before it is accepted.
		err = validateSolve(at, rhs, sol)
	}
	if err != nil && krylov && !pc.noRefactor {
		pc.refactor()
		sol, iters, err = run()
		if err == nil {
			err = validateSolve(at, rhs, sol)
		}
	}
	if err != nil {
		return nil, err
	}
	patchedSolves.Add(1)
	if krylov {
		if pc.baselineIters == 0 {
			pc.baselineIters = iters
		} else if iters > patchIterFactor*pc.baselineIters+patchIterSlack {
			// The preconditioner has decayed past the budget: refresh it
			// now so the *next* point solves fast again (this answer is
			// already converged to tolerance).
			pc.refactor()
		}
	}
	c.expandTransient(y, sol)
	return &Solution{chain: c, init: init, y: y}, nil
}
