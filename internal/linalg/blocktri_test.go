package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// blockCyclicSystem builds an n x n CTMC-generator-shaped matrix whose
// graph is a chain of small cycles: states are grouped in blocks of
// cycleLen, each block's states form a directed cycle (an SCC), and every
// state also leaks forward to the next block — the shape BlockTriLU is
// built for. Diagonals are set to the negated row sums minus leak, keeping
// the matrix strictly diagonally dominant and nonsingular.
func blockCyclicSystem(n, cycleLen int, rng *rand.Rand) *CSR {
	b := NewSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		row := 0.0
		blk := i / cycleLen
		// In-block cycle edge.
		j := blk*cycleLen + (i%cycleLen+1)%cycleLen
		if j != i && j < n {
			v := 0.5 + rng.Float64()
			b.Add(i, j, v)
			row += v
		}
		// Forward leak to the next block (absorption-like drift).
		if k := i + cycleLen; k < n {
			v := 0.5 + rng.Float64()
			b.Add(i, k, v)
			row += v
		}
		b.Add(i, i, -(row + 0.1))
	}
	return b.Build()
}

// TestBlockTriLUMatchesDense pins exactness: on block-cyclic systems of
// several shapes the single topological sweep reproduces the dense-LU
// answer to near machine precision, and Refresh with rescaled values keeps
// doing so without re-analysis.
func TestBlockTriLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, cycle int }{{12, 4}, {30, 5}, {64, 1}, {63, 7}} {
		a := blockCyclicSystem(shape.n, shape.cycle, rng)
		f, err := NewBlockTriLU(a, 16)
		if err != nil {
			t.Fatalf("n=%d cycle=%d: %v", shape.n, shape.cycle, err)
		}
		if got := f.MaxBlock(); got > shape.cycle {
			t.Fatalf("n=%d cycle=%d: max block %d exceeds the constructed cycle length", shape.n, shape.cycle, got)
		}
		for pass := 0; pass < 2; pass++ {
			rhs := NewVector(shape.n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			want, err := SolveDense(a.Dense(), rhs)
			if err != nil {
				t.Fatal(err)
			}
			got := NewVector(shape.n)
			f.Solve(got, rhs)
			scale := 1 + want.NormInf()
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > 1e-11*scale {
					t.Fatalf("n=%d cycle=%d pass %d: x[%d] = %g, dense %g", shape.n, shape.cycle, pass, i, got[i], want[i])
				}
			}
			// Rate-only value patch: scale every entry, Refresh, re-check.
			for k := range a.Val {
				a.Val[k] *= 1.7
			}
			if err := f.Refresh(a); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBlockTriLUMaxBlock pins the cyclicity budget: a single cycle larger
// than maxBlock is refused at analysis time.
func TestBlockTriLUMaxBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := blockCyclicSystem(12, 6, rng)
	if _, err := NewBlockTriLU(a, 4); err == nil || !strings.Contains(err.Error(), "block budget") {
		t.Fatalf("6-cycle under a 4-row budget returned %v, want block-budget error", err)
	}
	if _, err := NewBlockTriLU(a, 6); err != nil {
		t.Fatalf("6-cycle under a 6-row budget refused: %v", err)
	}
}

// TestBlockTriLUSingularBlock pins the numeric failure mode: a zero
// diagonal block is reported, not silently divided through.
func TestBlockTriLUSingularBlock(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Add(0, 0, 0)
	b.Add(0, 1, 1)
	b.Add(1, 1, 2)
	if _, err := NewBlockTriLU(b.Build(), 4); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("zero pivot returned %v, want singular-block error", err)
	}
}

// TestBlockTriLUNonSquare pins the shape check.
func TestBlockTriLUNonSquare(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewBlockTriLU(b.Build(), 4); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

// TestBlockTriLUSentinelErrors pins that both decline reasons wrap their
// sentinel, from the constructor and from Refresh alike.
func TestBlockTriLUSentinelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if _, err := NewBlockTriLU(blockCyclicSystem(12, 6, rng), 4); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("6-cycle under a 4-row budget: %v, want ErrBlockTooLarge", err)
	}

	b := NewSparseBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1)
	a := b.Build()
	if _, err := NewBlockTriLU(a, 4); !errors.Is(err, ErrSingularBlock) {
		t.Errorf("singular 2x2 block: %v, want ErrSingularBlock", err)
	}

	a.Val[3] = 2 // nonsingular now
	f, err := NewBlockTriLU(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Val[3] = 1 // same pattern, singular again
	if err := f.Refresh(a); !errors.Is(err, ErrSingularBlock) {
		t.Errorf("Refresh onto a singular block: %v, want ErrSingularBlock", err)
	}
}
