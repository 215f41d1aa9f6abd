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
	chain *Chain        // working chain: shared pattern, private values
	pp    *patchPattern // the donor's, shared read-only

	// Solve's vectors, reused by every solve: the sojourn vector, the
	// right-hand side, the direct solution and the absorption split's
	// accumulator. A Solution aliases them until the next solve.
	y, rhs, x, abs linalg.Vector
}

// patchPattern is what every PatchedChain cloned from one donor shares
// read-only, built once per donor: Q_TT's pattern and the scatter maps.
// edgeSlot[k] is the q.Val index of the k-th non-self edge of a
// non-absorbing state (graph iteration order), diagSlot the diagonal index
// per non-absorbing state (same order), subToQ maps Q_TT value indices
// into q.Val, subTPerm maps them on into Q_TT^T's value array (replaying
// the counting-sort transpose scatter).
type patchPattern struct {
	sub      *linalg.CSR // pattern only: Val is nil
	edgeSlot []int32
	diagSlot []int32
	subToQ   []int32
	subTPerm []int32
	nEdges   int
}

func (pp *patchPattern) sizeBytes() int64 {
	const word, i32 = 8, 4
	maps := cap(pp.edgeSlot) + cap(pp.diagSlot) + cap(pp.subToQ) + cap(pp.subTPerm)
	return int64(cap(pp.sub.RowPtr)+cap(pp.sub.ColIdx))*word + int64(maps)*i32
}

// NewPatchedChain builds the incremental re-solve seam over a fully
// prepared donor: the donor chain's transposed sub-generator is forced, a
// working chain is cloned with shared patterns and private value arrays,
// and the edge→CSR scatter maps are taken from the donor — built from g,
// the graph the donor was assembled from, by the donor's first session.
// Every session of the donor also shares the symbolic analyses of its
// direct solves. The donor itself is never mutated and stays valid, and
// the donor may be solving on another goroutine meanwhile.
func NewPatchedChain(donor *Chain, g *spn.Graph) (*PatchedChain, error) {
	if g.NumStates() != donor.n {
		return nil, fmt.Errorf("ctmc: graph has %d states, donor chain %d", g.NumStates(), donor.n)
	}
	donorSubT := donor.subGeneratorT()
	donor.patchOnce.Do(func() {
		pp, err := buildPatchPattern(donor, donorSubT, g)
		donor.patchErr = err
		donor.patch.Store(pp)
	})
	if donor.patchErr != nil {
		return nil, donor.patchErr
	}
	pp := donor.patch.Load()

	w := &Chain{
		n:         donor.n,
		q:         shareValuesCopy(donor.q),
		absorbing: donor.absorbing,
		tIdx:      donor.tIdx,
		tRev:      donor.tRev,
		solver:    donor.solver,
		patched:   true,
	}
	w.sub = &linalg.CSR{Rows: pp.sub.Rows, Cols: pp.sub.Cols, RowPtr: pp.sub.RowPtr, ColIdx: pp.sub.ColIdx,
		Val: make([]float64, len(pp.subToQ))}
	for k, qk := range pp.subToQ {
		w.sub.Val[k] = w.q.Val[qk]
	}
	w.subT = shareValuesCopy(donorSubT)
	w.dirSub.pattern, w.dirSubT.pattern = donor.dirSub.pattern, donor.dirSubT.pattern
	w.absTerms.Store(donor.absorptionTerms())
	// The lazily-built members are pre-seeded, so mark their once-cells
	// consumed (the patched chain is single-goroutine by contract).
	w.subOnce.Do(func() {})
	w.subTOnce.Do(func() {})
	w.absOnce.Do(func() {})
	return &PatchedChain{chain: w, pp: pp}, nil
}

// SharedPatchBytes reports the bytes of what the chain shares with its
// patched sessions (Q_TT's pattern and the scatter maps): zero until the
// first NewPatchedChain on it builds them.
func (c *Chain) SharedPatchBytes() int64 {
	if pp := c.patch.Load(); pp != nil {
		return pp.sizeBytes()
	}
	return 0
}

// directNumericWords is the predicted size of one matrix's numeric
// block-triangular factors per transient state, in words: the dense
// diagonal-block factors and the pivots. A patched chain holds only these;
// the symbolic analysis is its donor's.
const directNumericWords = 5

// SizeBytes estimates the bytes the patched chain holds privately: the
// working chain's value arrays of Q, Q_TT and Q_TT^T, Solve's vectors and
// its numeric block-triangular factors (predicted, as in
// Chain.SizeBytes). The
// patterns, the scatter maps and the symbolic analysis it shares with the
// donor are the donor's to count.
func (pc *PatchedChain) SizeBytes() int64 {
	const word = 8
	c := pc.chain
	nt := int64(len(c.tRev))
	size := int64(cap(c.q.Val)+cap(c.sub.Val)+cap(c.subT.Val)) * word
	size += int64(cap(pc.y)+cap(pc.rhs)+cap(pc.x)+cap(pc.abs)) * word
	return size + nt*directNumericWords*word
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

// buildPatchPattern precomputes every index translation PatchRates needs,
// so each patch is a pure gather/scatter with no searching. It only reads
// the donor.
func buildPatchPattern(c *Chain, subT *linalg.CSR, g *spn.Graph) (*patchPattern, error) {
	q := c.q
	if q.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("ctmc: %d generator entries exceed the scatter maps", q.NNZ())
	}
	pp := &patchPattern{nEdges: g.NumEdges(), diagSlot: make([]int32, 0, len(c.tRev))}
	for i := 0; i < c.n; i++ {
		if c.absorbing[i] {
			continue
		}
		lo, hi := q.RowPtr[i], q.RowPtr[i+1]
		row := q.ColIdx[lo:hi]
		find := func(col int) (int32, bool) {
			k := sort.SearchInts(row, col)
			if k == len(row) || row[k] != col {
				return 0, false
			}
			return int32(lo + k), true
		}
		for _, e := range g.Edges[i] {
			if e.To == i {
				continue
			}
			slot, ok := find(e.To)
			if !ok {
				return nil, fmt.Errorf("ctmc: graph edge %d->%d has no slot in the cached generator pattern", i, e.To)
			}
			pp.edgeSlot = append(pp.edgeSlot, slot)
		}
		slot, ok := find(i)
		if !ok {
			return nil, fmt.Errorf("ctmc: transient state %d stores no diagonal entry", i)
		}
		pp.diagSlot = append(pp.diagSlot, slot)
	}

	// Q_TT's pattern and its gather from Q replay subGenerator's filtered
	// row copy.
	nt := len(c.tRev)
	nnz := c.subNNZ()
	sub := &linalg.CSR{Rows: nt, Cols: nt, RowPtr: make([]int, nt+1), ColIdx: make([]int, 0, nnz)}
	pp.subToQ = make([]int32, 0, nnz)
	for ti, i := range c.tRev {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if tj := c.tIdx[q.ColIdx[k]]; tj >= 0 {
				sub.ColIdx = append(sub.ColIdx, tj)
				pp.subToQ = append(pp.subToQ, int32(k))
			}
		}
		sub.RowPtr[ti+1] = len(sub.ColIdx)
	}
	pp.sub = sub
	if len(pp.subToQ) != len(subT.ColIdx) {
		return nil, fmt.Errorf("ctmc: sub-generator scatter map has %d entries, want %d", len(pp.subToQ), len(subT.ColIdx))
	}

	// Q_TT^T scatters from Q_TT by replaying the counting-sort transpose.
	pp.subTPerm = make([]int32, len(sub.ColIdx))
	next := append([]int(nil), subT.RowPtr[:subT.Rows]...)
	for k, j := range sub.ColIdx {
		pp.subTPerm[k] = int32(next[j])
		next[j]++
	}
	return pp, nil
}

// PatchRates rewrites the working chain's Q, Q_TT, and Q_TT^T values in
// place from a re-rated graph with the same edge topology the chain was
// built from (the caller's re-rate guarantees that or fails). A non-positive
// edge rate or a vanished exit rate means the change was structural after
// all; the error tells the caller to fall back to a full re-prepare, and
// the working values are unspecified until a successful re-patch. A
// successful patch marks the direct factors stale and drops the cached
// ILU(0) factors, which no longer match the values.
func (pc *PatchedChain) PatchRates(g *spn.Graph) error {
	c, pp := pc.chain, pc.pp
	q := c.q
	if g.NumStates() != c.n || g.NumEdges() != pp.nEdges {
		return fmt.Errorf("ctmc: patch graph shape (%d states, %d edges) does not match the cached pattern (%d, %d)",
			g.NumStates(), g.NumEdges(), c.n, pp.nEdges)
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
			q.Val[pp.edgeSlot[ei]] += e.Rate
			ei++
			exit += e.Rate
		}
		if exit <= 0 {
			return fmt.Errorf("ctmc: transient state %d lost its exit rate; structural change", i)
		}
		q.Val[pp.diagSlot[di]] = -exit
		di++
	}
	sub, subT := c.sub, c.subT
	for k, qk := range pp.subToQ {
		v := q.Val[qk]
		sub.Val[k] = v
		subT.Val[pp.subTPerm[k]] = v
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
// aliases the working chain and the patched chain's vectors: consume it
// before the next PatchRates or Solve call.
//
// The solver fault probes apply to the direct tier as on the ladder's
// primary rung: a forced breakdown fails the solve outright and a forced
// non-finite direct answer must be refused by the admission gate, so chaos
// runs exercise the caller's fallback from a failed patched solve to a
// full prepare.
func (pc *PatchedChain) Solve(init int) (*Solution, error) {
	c := pc.chain
	at, rhs, y, done, err := c.transientSystem(init, pc.y, pc.rhs)
	if err != nil {
		return nil, err
	}
	pc.y, pc.rhs = y, rhs
	if len(pc.abs) != c.NumAbsorbing() {
		pc.abs = linalg.NewVector(c.NumAbsorbing())
	}
	if done {
		return &Solution{chain: c, init: init, y: y, abs: pc.abs}, nil
	}
	if faultinject.Fire(faultinject.SolverBreakdown) {
		return nil, errors.New("faultinject: forced solver breakdown")
	}
	var sol linalg.Vector
	if c.Solver().Name() == BackendAuto {
		x, passes, ok := c.dirSubT.solve(at, rhs, pc.x)
		addSolveIters(blockTriBackend, uint64(passes))
		if x != nil {
			pc.x = x
		}
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
	return &Solution{chain: c, init: init, y: y, abs: pc.abs}, nil
}
