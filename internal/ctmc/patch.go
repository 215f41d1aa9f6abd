package ctmc

// Value-only generator patching: the incremental re-solve path. A sweep of
// rate-only neighbouring configurations shares one reachability graph, so
// the CSR *patterns* of Q, Q_TT, and Q_TT^T — and the transient index
// mapping — are invariants of the family; only the values change. A
// PatchedChain owns a working Chain whose pattern arrays alias a fully
// prepared donor chain's while its value arrays are private, plus the
// one-time scatter maps that rewrite all three value arrays in place from
// a re-rated graph: no re-assembly, no re-transpose, no symbolic analysis.
//
// The solve runs the exact block-triangular solve every "auto" full solve
// starts with (direct.go): the SCC condensation and block layout are
// symbolic, computed once per pattern, and each patch only marks the
// numeric factors stale, so the next solve re-extracts the tiny dense
// diagonal blocks in O(nnz) before a single topological sweep. A pattern
// the direct solve declines, or a chain pinned to an explicit backend,
// re-solves through the working chain's own solve ladder (Chain.solveVia)
// on ILU(0) factors of the patched values; each patch drops the previous
// factors.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
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

// Refactorizations returns how many ILU(0) factorizations patched chains
// have made: one per patched point whose solve the exact direct solve
// does not answer (a declined pattern, or an explicit iterative backend).
func Refactorizations() uint64 { return refactorizations.Load() }

// PatchedChain is a Chain whose generator values can be rewritten in place
// against the cached CSR pattern of a donor chain. Not safe for concurrent
// use: it is the per-sweep mutable counterpart of an immutable Prepared
// chain, and a Solution it produces is only valid until the next
// PatchRates call mutates the working arrays under it.
type PatchedChain struct {
	chain *Chain // working chain: shared pattern, private values

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
// donor was assembled from. The donor itself is never mutated and stays
// valid.
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
		patched:   true,
	}
	w.sub = donor.buildSub() // private, and not cached on the donor
	w.subT = shareValuesCopy(donorSubT)
	// The lazily-built members are pre-seeded, so mark their once-cells
	// consumed (the patched chain is single-goroutine by contract).
	w.subOnce.Do(func() {})
	w.subTOnce.Do(func() {})

	pc := &PatchedChain{chain: w, nEdges: g.NumEdges()}
	if err := pc.buildScatterMaps(g); err != nil {
		return nil, err
	}
	return pc, nil
}

// SizeBytes estimates the bytes the patched chain holds privately: the
// working chain's value arrays, its own Q_TT, its exact block-triangular
// factors (predicted, as in Chain.SizeBytes) and the scatter maps. The
// pattern arrays it shares with the donor are the donor's to count.
func (pc *PatchedChain) SizeBytes() int64 {
	const word = 8
	c := pc.chain
	nt := int64(len(c.tRev))
	size := int64(cap(c.q.Val))*word + int64(cap(c.subT.Val))*word
	size += csrBytes(nt, int64(c.sub.NNZ()))
	size += nt * directFactorWords * word
	maps := cap(pc.edgeSlot) + cap(pc.diagSlot) + cap(pc.subToQ) + cap(pc.subTPerm)
	return size + int64(maps)*word
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
// the working values are unspecified until a successful re-patch. A
// successful patch marks the direct factors stale and drops the cached
// ILU(0) factors, which no longer match the values.
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
	c.iluSubOnce, c.iluSub, c.iluSubErr = sync.Once{}, nil, nil
	c.iluSubTOnce, c.iluSubT, c.iluSubTErr = sync.Once{}, nil, nil
	return nil
}

// Solve runs the sojourn solve for the patched system. Under "auto" the
// exact block-triangular tier takes it when the pattern admits it; a
// pattern the direct solve declines, and a chain pinned to an explicit
// backend, re-solve through the working chain's own ladder (Chain.solveVia)
// on fresh ILU(0) factors of the patched values. The returned Solution
// aliases the working chain: consume it before the next PatchRates call.
//
// The solver fault probes apply to the direct tier as on the ladder's
// primary rung: a forced breakdown fails the solve outright and a forced
// non-finite direct answer must be refused by the admission gate, so chaos
// runs exercise the caller's fallback from a failed patched solve to a
// full prepare.
func (pc *PatchedChain) Solve(init int) (*Solution, error) {
	c := pc.chain
	at, rhs, y, done, err := c.transientSystem(init)
	if err != nil {
		return nil, err
	}
	if done {
		return &Solution{chain: c, init: init, y: y}, nil
	}
	if faultinject.Fire(faultinject.SolverBreakdown) {
		return nil, errors.New("faultinject: forced solver breakdown")
	}
	var sol linalg.Vector
	if c.Solver().Name() == BackendAuto {
		x, passes, ok := c.dirSubT.solve(at, rhs)
		addSolveIters(blockTriBackend, uint64(passes))
		if ok && faultinject.Fire(faultinject.SolverNonFinite) {
			x[0] = math.NaN()
			if err := validateSolve(at, rhs, x); err != nil {
				return nil, err
			}
		}
		if ok {
			solveCount.Add(1)
			sol = x
		}
	}
	if sol == nil {
		if sol, err = c.solveVia(at, rhs, c.iluForSubT, &c.dirSubT); err != nil {
			return nil, err
		}
	}
	patchedSolves.Add(1)
	c.expandTransient(y, sol)
	return &Solution{chain: c, init: init, y: y}, nil
}
