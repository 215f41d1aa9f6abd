package linalg

import (
	"errors"
	"fmt"
	"math"
)

// The two ways a pattern or a matrix can be turned down by BlockTriLU.
// NewBlockTriLU and Refresh wrap them, so callers can tell the reasons
// apart with errors.Is.
var (
	// ErrBlockTooLarge: a strongly connected component exceeds the
	// block budget.
	ErrBlockTooLarge = errors.New("linalg: BlockTriLU component exceeds the block budget")
	// ErrSingularBlock: a diagonal block has a zero pivot.
	ErrSingularBlock = errors.New("linalg: BlockTriLU singular diagonal block")
)

// BlockTriLU is an exact sparse factorization for matrices whose directed
// graph is nearly acyclic: Tarjan's algorithm condenses the pattern into
// strongly connected components, the components are ordered so every entry
// A[v][w] with w outside v's component points at an already-solved block,
// and each component keeps a small dense LU (partial pivoting) of its
// diagonal block. The CTMC transient generators in this repository are
// exactly this shape — absorption drives the state graph forward and only
// short partition/merge cycles knot a handful of states together — so the
// "factorization" costs one pass over the nonzeros plus a few tiny dense
// eliminations, and a solve is a single topological sweep: the price of one
// preconditioner application, for an exact answer.
//
// The symbolic phase (condensation, ordering, block layouts) depends only
// on the CSR pattern and is computed once (AnalyzeBlockTri), and clones
// share it; Refresh re-extracts the numeric
// factors from a same-pattern matrix in O(nnz + Σ blockSize³), which is
// what makes the type the natural companion of the value-patched
// incremental re-solve path. A pattern whose largest component exceeds
// maxBlock is rejected at construction so the dense blocks stay tiny.
type BlockTriLU struct {
	n      int
	rowPtr []int // shared with the analyzed pattern
	colIdx []int // shared with the analyzed pattern
	val    []float64

	comp   []int // row -> component id, ids in dependency order
	rows   []int // rows grouped by component, concatenated in that order
	blkPtr []int // component b spans rows[blkPtr[b]:blkPtr[b+1]]

	// In-block entries per component: entVal[k] indexes the matrix value
	// array, entPos[k] the dense factor slot (localRow*m + localCol).
	entVal []int
	entPos []int
	entPtr []int

	fac    []float64 // dense LU factors, component b at facPtr[b], size m*m
	facPtr []int
	piv    []int // pivot rows per component, aligned with rows

	scratch []float64 // one block's right-hand side
	maxM    int       // the largest block's size
}

// NewBlockTriLU analyzes the pattern of a square, column-sorted CSR matrix
// and computes the initial numeric factorization. It fails when the pattern
// contains a strongly connected component larger than maxBlock (the matrix
// is too cyclic for the block-triangular sweep to stay cheap) or when a
// diagonal block is singular.
func NewBlockTriLU(a *CSR, maxBlock int) (*BlockTriLU, error) {
	sym, err := AnalyzeBlockTri(a, maxBlock)
	if err != nil {
		return nil, err
	}
	f := sym.Clone()
	if err := f.Refresh(a); err != nil {
		return nil, err
	}
	return f, nil
}

// AnalyzeBlockTri runs the symbolic phase alone: the condensation, the
// block order and the block layouts of a's pattern. The result holds no
// numeric factors; Clone it and Refresh the clone. Every clone shares the
// analysis read-only, so one analysis serves any number of matrices of the
// pattern, on any number of goroutines. It fails when a strongly connected
// component exceeds maxBlock.
func AnalyzeBlockTri(a *CSR, maxBlock int) (*BlockTriLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: BlockTriLU requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if maxBlock < 1 {
		maxBlock = 1
	}
	f := &BlockTriLU{n: a.Rows, rowPtr: a.RowPtr, colIdx: a.ColIdx}
	if err := f.condense(maxBlock); err != nil {
		return nil, err
	}
	f.layoutBlocks()
	return f, nil
}

// Clone returns a factorization that shares f's symbolic analysis and owns
// fresh numeric arrays (factors, pivots, scratch): Refresh it before the
// first Solve.
func (f *BlockTriLU) Clone() *BlockTriLU {
	c := *f
	c.val = nil
	c.fac = make([]float64, f.facPtr[len(f.facPtr)-1])
	c.piv = make([]int, len(f.rows))
	c.scratch = make([]float64, f.maxM)
	return &c
}

// condense runs an iterative Tarjan SCC pass over the pattern. Tarjan
// emits a component only after every component it depends on (every
// A[v][w] edge leaving it), so numbering components in emission order IS
// the solve order: by the time block b is processed, every off-block
// column it references is already solved.
func (f *BlockTriLU) condense(maxBlock int) error {
	n := f.n
	index := make([]int, n)
	low := make([]int, n)
	onstack := make([]bool, n)
	f.comp = make([]int, n)
	for i := range index {
		index[i] = -1
		f.comp[i] = -1
	}
	stack := make([]int, 0, n)
	type frame struct{ v, ei int }
	var frames []frame
	idx, ncomp := 0, 0
	f.rows = make([]int, 0, n)
	f.blkPtr = append(f.blkPtr, 0)
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		frames = append(frames[:0], frame{root, f.rowPtr[root]})
		index[root], low[root] = idx, idx
		idx++
		stack = append(stack, root)
		onstack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei < f.rowPtr[v+1] {
				w := f.colIdx[fr.ei]
				fr.ei++
				if w == v {
					continue
				}
				if index[w] < 0 {
					frames = append(frames, frame{w, f.rowPtr[w]})
					index[w], low[w] = idx, idx
					idx++
					stack = append(stack, w)
					onstack[w] = true
				} else if onstack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(f.rows)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					f.comp[w] = ncomp
					f.rows = append(f.rows, w)
					if w == v {
						break
					}
				}
				if m := len(f.rows) - start; m > maxBlock {
					return fmt.Errorf("%w: component of %d rows, budget %d", ErrBlockTooLarge, m, maxBlock)
				}
				f.blkPtr = append(f.blkPtr, len(f.rows))
				ncomp++
			}
		}
	}
	return nil
}

// layoutBlocks precomputes, per component, the in-block entry scatter and
// the dense factor layout, so Refresh is a straight gather.
func (f *BlockTriLU) layoutBlocks() {
	nb := len(f.blkPtr) - 1
	local := make([]int, f.n)
	for b := 0; b < nb; b++ {
		for li, gi := range f.rows[f.blkPtr[b]:f.blkPtr[b+1]] {
			local[gi] = li
		}
	}
	f.entPtr = make([]int, 1, nb+1)
	f.facPtr = make([]int, nb+1)
	for b := 0; b < nb; b++ {
		m := f.blkPtr[b+1] - f.blkPtr[b]
		f.maxM = max(f.maxM, m)
		for _, gi := range f.rows[f.blkPtr[b]:f.blkPtr[b+1]] {
			for k := f.rowPtr[gi]; k < f.rowPtr[gi+1]; k++ {
				if w := f.colIdx[k]; f.comp[w] == b {
					f.entVal = append(f.entVal, k)
					f.entPos = append(f.entPos, local[gi]*m+local[w])
				}
			}
		}
		f.entPtr = append(f.entPtr, len(f.entVal))
		f.facPtr[b+1] = f.facPtr[b] + m*m
	}
}

// Refresh recomputes the numeric factors from a matrix with the analyzed
// pattern (same RowPtr/ColIdx shape; only values may differ — exactly what
// the value-patched incremental path guarantees). It fails on a singular
// diagonal block, leaving the factorization unusable until a successful
// Refresh.
func (f *BlockTriLU) Refresh(a *CSR) error {
	// Cheap shape sanity only: a full pattern comparison would cost as
	// much as the refresh itself, and the patched-chain caller guarantees
	// the pattern arrays are literally shared.
	if a.Rows != f.n || len(a.Val) != len(f.colIdx) {
		return fmt.Errorf("linalg: BlockTriLU.Refresh matrix shape (%dx%d, %d nnz) does not match the analyzed pattern (%dx%d, %d nnz)",
			a.Rows, a.Cols, len(a.Val), f.n, f.n, len(f.colIdx))
	}
	f.val = a.Val
	nb := len(f.blkPtr) - 1
	for b := 0; b < nb; b++ {
		m := f.blkPtr[b+1] - f.blkPtr[b]
		fac := f.fac[f.facPtr[b]:f.facPtr[b+1]]
		for i := range fac {
			fac[i] = 0
		}
		for k := f.entPtr[b]; k < f.entPtr[b+1]; k++ {
			fac[f.entPos[k]] += a.Val[f.entVal[k]]
		}
		piv := f.piv[f.blkPtr[b]:f.blkPtr[b+1]]
		if k := denseLUFactor(fac, piv, m); k >= 0 {
			return fmt.Errorf("%w: block %d (%d rows), pivot %d", ErrSingularBlock, b, m, k)
		}
	}
	return nil
}

// denseLUFactor computes an in-place LU factorization with partial
// pivoting of the m x m row-major matrix fac, recording row swaps in piv.
// It returns the first zero pivot's index, or -1 when fac is nonsingular.
func denseLUFactor(fac []float64, piv []int, m int) int {
	for k := 0; k < m; k++ {
		p, best := k, math.Abs(fac[k*m+k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(fac[i*m+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return k
		}
		piv[k] = p
		if p != k {
			rk, rp := fac[k*m:(k+1)*m], fac[p*m:(p+1)*m]
			for j := 0; j < m; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivVal := fac[k*m+k]
		for i := k + 1; i < m; i++ {
			lik := fac[i*m+k] / pivVal
			fac[i*m+k] = lik
			for j := k + 1; j < m; j++ {
				fac[i*m+j] -= lik * fac[k*m+j]
			}
		}
	}
	return -1
}

// Solve writes the exact solution of A z = r into z (z must not alias r):
// one sweep over the components in dependency order, each block's
// right-hand side gathered from already-solved entries and finished by its
// dense factors. Cost: one pass over the nonzeros plus the tiny dense
// substitutions.
func (f *BlockTriLU) Solve(z, r Vector) {
	if len(z) != f.n || len(r) != f.n {
		panic(fmt.Sprintf("linalg: BlockTriLU.Solve length %d/%d, want %d", len(z), len(r), f.n))
	}
	nb := len(f.blkPtr) - 1
	for b := 0; b < nb; b++ {
		lo := f.blkPtr[b]
		m := f.blkPtr[b+1] - lo
		rhs := f.scratch[:m]
		for li := 0; li < m; li++ {
			gi := f.rows[lo+li]
			s := r[gi]
			for k := f.rowPtr[gi]; k < f.rowPtr[gi+1]; k++ {
				if w := f.colIdx[k]; f.comp[w] != b {
					s -= f.val[k] * z[w]
				}
			}
			rhs[li] = s
		}
		fac := f.fac[f.facPtr[b]:f.facPtr[b+1]]
		piv := f.piv[lo : lo+m]
		// P r, then unit-lower forward and upper back substitution.
		for k := 0; k < m; k++ {
			if p := piv[k]; p != k {
				rhs[k], rhs[p] = rhs[p], rhs[k]
			}
			for j := 0; j < k; j++ {
				rhs[k] -= fac[k*m+j] * rhs[j]
			}
		}
		for k := m - 1; k >= 0; k-- {
			s := rhs[k]
			for j := k + 1; j < m; j++ {
				s -= fac[k*m+j] * rhs[j]
			}
			rhs[k] = s / fac[k*m+k]
		}
		for li := 0; li < m; li++ {
			z[f.rows[lo+li]] = rhs[li]
		}
	}
}

// MaxBlock returns the largest component size of the analyzed pattern.
func (f *BlockTriLU) MaxBlock() int { return f.maxM }
