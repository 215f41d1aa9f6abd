package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randDominantCSR builds a random square, strictly diagonally dominant CSR
// system — the class the CTMC layer produces — with a known solution.
func randDominantCSR(rng *rand.Rand, n int) (*CSR, Vector, Vector) {
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		row := 0.0
		nnz := 1 + rng.Intn(4)
		for e := 0; e < nnz; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			b.Add(i, j, v)
			row += math.Abs(v)
		}
		b.Add(i, i, row+1+rng.Float64())
	}
	a := b.Build()
	want := NewVector(n)
	for i := range want {
		want[i] = rng.Float64()*4 - 2
	}
	return a, a.MulVec(want), want
}

// lattice2D builds the transient operator of an n x n lattice random walk
// with uniform absorption rate delta — the synthetic large-N system the
// solve_largeN benchmark uses, shrunk for tests. Returns A = Q_TT (negated
// generator convention does not matter for solver testing).
func lattice2D(n int, delta float64) *CSR {
	idx := func(r, c int) int { return r*n + c }
	entries := make([]Coord, 0, 5*n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := idx(r, c)
			row := make([]Coord, 0, 5)
			deg := 0.0
			add := func(j int) {
				row = append(row, Coord{Row: i, Col: j, Val: 1})
				deg++
			}
			if r > 0 {
				add(idx(r-1, c))
			}
			if r < n-1 {
				add(idx(r+1, c))
			}
			if c > 0 {
				add(idx(r, c-1))
			}
			if c < n-1 {
				add(idx(r, c+1))
			}
			entries = append(entries, Coord{Row: i, Col: i, Val: -(deg + delta)})
			entries = append(entries, row...)
		}
	}
	b := NewSparseBuilder(n*n, n*n)
	for _, e := range entries {
		b.Add(e.Row, e.Col, e.Val)
	}
	return b.Build()
}

func maxAbsDiff(a, b Vector) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestILU0ExactOnTriangularPattern pins that ILU(0) is an exact LU when the
// matrix's fill-in is already contained in its pattern (dense small case):
// applying the factors to A*x must recover x.
func TestILU0ExactOnDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.Float64()*2 - 1
			if i == j {
				v = float64(n) + rng.Float64()
			}
			b.Add(i, j, v)
		}
	}
	a := b.Build()
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewVector(n)
	for i := range want {
		want[i] = rng.Float64()*4 - 2
	}
	rhs := a.MulVec(want)
	got := NewVector(n)
	f.Apply(got, rhs)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("dense ILU(0) apply is not an exact solve: max diff %g", d)
	}
}

// TestILU0MissingDiagonal pins the clean error on a pattern without a
// stored diagonal.
func TestILU0MissingDiagonal(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := NewILU0(b.Build()); err == nil {
		t.Fatal("ILU0 accepted a matrix with no diagonal entries")
	}
}

// TestPrecBiCGSTABMatchesLU cross-checks the preconditioned Krylov solvers
// against dense LU on randomized diagonally dominant systems, with and
// without the ILU(0) preconditioner.
func TestPrecKrylovMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		a, rhs, _ := randDominantCSR(rng, n)
		want, err := SolveDense(a.Dense(), rhs)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewILU0(a)
		if err != nil {
			t.Fatalf("trial %d: ILU0: %v", trial, err)
		}
		precs := []Preconditioner{nil, f}
		for pi, m := range precs {
			x, res, err := SolvePrecBiCGSTAB(a, rhs, m, IterOpts{Tol: 1e-13})
			if err != nil {
				t.Fatalf("trial %d prec=%d: BiCGSTAB: %v", trial, pi, err)
			}
			if d := maxAbsDiff(x, want); d > 1e-8*(1+want.NormInf()) {
				t.Fatalf("trial %d prec=%d: BiCGSTAB max diff %g (res %g)", trial, pi, d, res.Residual)
			}
			x, res, err = SolveGMRES(a, rhs, m, GMRESOpts{IterOpts: IterOpts{Tol: 1e-13}, Restart: 15})
			if err != nil {
				t.Fatalf("trial %d prec=%d: GMRES: %v", trial, pi, err)
			}
			if d := maxAbsDiff(x, want); d > 1e-8*(1+want.NormInf()) {
				t.Fatalf("trial %d prec=%d: GMRES max diff %g (res %g)", trial, pi, d, res.Residual)
			}
		}
	}
}

// TestILUAcceleratesLattice pins the reason the backend exists: on the 2D
// lattice operator the ILU(0)-preconditioned solve needs far fewer
// iterations than the unpreconditioned one.
func TestILUAcceleratesLattice(t *testing.T) {
	a := lattice2D(40, 0.02)
	n := a.Rows
	rhs := NewVector(n)
	rhs[0] = -1
	plain, resPlain, err := SolvePrecBiCGSTAB(a, rhs, nil, IterOpts{Tol: 1e-12, MaxIter: 40000})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	prec, resPrec, err := SolvePrecBiCGSTAB(a, rhs, f, IterOpts{Tol: 1e-12, MaxIter: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(plain, prec); d > 1e-7*(1+plain.NormInf()) {
		t.Fatalf("preconditioned and plain solutions differ by %g", d)
	}
	if resPrec.Iterations*2 > resPlain.Iterations {
		t.Fatalf("ILU(0) BiCGSTAB spent %d iterations, plain %d — want at least 2x fewer",
			resPrec.Iterations, resPlain.Iterations)
	}
}

// TestFusedKernelsMatchReference cross-checks the unrolled MulVecTo and the
// fused ResidualNorm against the straightforward two-pass computation.
func TestFusedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		a, rhs, _ := randDominantCSR(rng, n)
		x := NewVector(n)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		y := a.MulVec(x) // reference single-accumulator path
		got := NewVector(n)
		a.MulVecTo(got, x)
		for i := range y {
			if math.Abs(y[i]-got[i]) > 1e-12*(1+math.Abs(y[i])) {
				t.Fatalf("trial %d: MulVecTo[%d] = %g, MulVec = %g", trial, i, got[i], y[i])
			}
		}
		res := y.Clone()
		res.Sub(res, rhs)
		want := res.Norm2()
		if gotN := ResidualNorm(a, x, rhs); math.Abs(gotN-want) > 1e-10*(1+want) {
			t.Fatalf("trial %d: ResidualNorm = %g, reference = %g", trial, gotN, want)
		}
	}
}

// Alloc pins for the fused kernels and the ILU(0) application: the large-N
// solve loop must not touch the allocator.
func TestMulVecToAllocs(t *testing.T) {
	a := lattice2D(12, 0.05)
	x := ConstVector(a.Cols, 1)
	y := NewVector(a.Rows)
	if allocs := testing.AllocsPerRun(100, func() { a.MulVecTo(y, x) }); allocs != 0 {
		t.Fatalf("MulVecTo allocates %v per call, want 0", allocs)
	}
}

func TestResidualNormAllocs(t *testing.T) {
	a := lattice2D(12, 0.05)
	x := ConstVector(a.Cols, 1)
	b := ConstVector(a.Rows, 0.5)
	if allocs := testing.AllocsPerRun(100, func() { ResidualNorm(a, x, b) }); allocs != 0 {
		t.Fatalf("ResidualNorm allocates %v per call, want 0", allocs)
	}
}

func TestILUApplyAllocs(t *testing.T) {
	a := lattice2D(12, 0.05)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	r := ConstVector(a.Rows, 1)
	z := NewVector(a.Rows)
	if allocs := testing.AllocsPerRun(100, func() { f.Apply(z, r) }); allocs != 0 {
		t.Fatalf("ILU0.Apply allocates %v per call, want 0", allocs)
	}
}
