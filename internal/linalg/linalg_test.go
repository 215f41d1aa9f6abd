package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func vecApprox(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approx(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func randomDense(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Boost the diagonal so the matrix is comfortably nonsingular.
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm2(); !approx(got, 5, 1e-14) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	w := Vector{1, 2}
	if got := v.Dot(w); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
	if got := v.Sum(); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
}

func TestVectorNorm2Overflow(t *testing.T) {
	v := Vector{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := v.Norm2(); !approx(got, want, 1e-12) {
		t.Errorf("Norm2 large = %v, want %v", got, want)
	}
}

func TestVectorAXPYScaleSub(t *testing.T) {
	v := Vector{1, 2, 3}
	v.AXPY(2, Vector{1, 1, 1})
	if !vecApprox(v, Vector{3, 4, 5}, 0) {
		t.Errorf("AXPY = %v", v)
	}
	v.Scale(0.5)
	if !vecApprox(v, Vector{1.5, 2, 2.5}, 0) {
		t.Errorf("Scale = %v", v)
	}
	out := NewVector(3)
	out.Sub(Vector{5, 5, 5}, v)
	if !vecApprox(out, Vector{3.5, 3, 2.5}, 0) {
		t.Errorf("Sub = %v", out)
	}
}

func TestVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestDenseMulVecIdentity(t *testing.T) {
	id := Identity(4)
	x := Vector{1, 2, 3, 4}
	if got := id.MulVec(x); !vecApprox(got, x, 0) {
		t.Errorf("I*x = %v", got)
	}
}

func TestDenseMulKnown(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := DenseFromRows([][]float64{{19, 22}, {43, 50}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %+v, want %+v", c.Data, want.Data)
		}
	}
}

func TestDenseTranspose(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose content wrong: %+v", at.Data)
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		a := randomDense(rng, n)
		xTrue := NewVector(n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("SolveDense: %v", err)
		}
		if !vecApprox(x, xTrue, 1e-8) {
			t.Fatalf("n=%d solve mismatch:\n got %v\nwant %v", n, x, xTrue)
		}
	}
}

func TestLUSolvePivotingRequired(t *testing.T) {
	// Matrices with no diagonal boost force row interchanges, exercising
	// the permutation handling in Solve.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		xTrue := NewVector(n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := SolveDense(a, b)
		if err != nil {
			continue // singular draw; skip
		}
		r := a.MulVec(x)
		r.Sub(r, b)
		if rel := r.Norm2() / b.Norm2(); rel > 1e-8 {
			t.Fatalf("n=%d residual %v too large", n, rel)
		}
	}
}

func TestLUSolveZeroFirstPivot(t *testing.T) {
	// A[0][0] == 0 requires an immediate swap.
	a := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveDense(a, Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !vecApprox(x, Vector{4, 3}, 1e-12) {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err == nil {
		t.Fatal("Factorize of singular matrix succeeded")
	}
}

func TestLUDet(t *testing.T) {
	a := DenseFromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); !approx(got, -6, 1e-12) {
		t.Errorf("Det = %v, want -6", got)
	}
}

func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomDense(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSparseBuildDedup(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(2, 1, 5)
	b.Add(1, 2, -5)
	b.Add(1, 2, 5) // cancels to zero: should be dropped
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := m.At(2, 1); got != 5 {
		t.Errorf("At(2,1) = %v, want 5", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0 after cancellation", got)
	}
}

func TestSparseAddZeroIgnored(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Add(0, 1, 0)
	if b.NNZ() != 0 {
		t.Errorf("zero Add stored an entry")
	}
}

func TestSparseAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	NewSparseBuilder(2, 2).Add(2, 0, 1)
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		b := NewSparseBuilder(rows, cols)
		d := NewDense(rows, cols)
		for e := 0; e < rows*cols/2; e++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := rng.NormFloat64()
			b.Add(i, j, v)
			d.Add(i, j, v)
		}
		m := b.Build()
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if !vecApprox(m.MulVec(x), d.MulVec(x), 1e-12) {
			t.Fatal("CSR.MulVec disagrees with Dense.MulVec")
		}
		// Transpose product check too.
		y := NewVector(rows)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		if !vecApprox(m.TransposeMulVec(y), d.Transpose().MulVec(y), 1e-12) {
			t.Fatal("CSR.TransposeMulVec disagrees with dense transpose")
		}
	}
}

func TestCSRTransposeRoundTrip(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	b.Add(0, 2, 7)
	b.Add(1, 0, -1)
	m := b.Build()
	tt := m.Transpose().Transpose()
	if tt.Rows != 2 || tt.Cols != 3 || tt.At(0, 2) != 7 || tt.At(1, 0) != -1 {
		t.Errorf("double transpose mismatch")
	}
}

func TestCSRDiag(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(2, 2, 3)
	d := b.Build().Diag()
	if !vecApprox(d, Vector{1, 0, 3}, 0) {
		t.Errorf("Diag = %v", d)
	}
}

// laplace1D builds the classic tridiagonal [-1 2 -1] system, a standard
// well-conditioned SPD test matrix for iterative solvers.
func laplace1D(n int) *CSR {
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

func TestBiCGSTABZeroRHS(t *testing.T) {
	a := laplace1D(8)
	x, _, err := SolvePrecBiCGSTAB(a, NewVector(8), nil, IterOpts{})
	if err != nil {
		// A zero RHS with zero x0 gives rho=0 breakdown; either a zero
		// solution or a breakdown with zero residual is acceptable.
		if x.Norm2() != 0 {
			t.Fatalf("nonzero solution for zero RHS: %v", x)
		}
		return
	}
	if x.Norm2() != 0 {
		t.Fatalf("nonzero solution for zero RHS: %v", x)
	}
}
