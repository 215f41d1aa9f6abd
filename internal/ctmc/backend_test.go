package ctmc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// randAbsorbingChain builds a random irreducible-ish chain over n states
// where the last state is absorbing and every state reaches it.
func randAbsorbingChain(rng *rand.Rand, n int) *Chain {
	edges := make([][3]float64, 0, 3*n)
	for i := 0; i < n-1; i++ {
		// A forward edge guarantees absorption is reachable.
		edges = append(edges, [3]float64{float64(i), float64(i + 1), 0.1 + rng.Float64()})
		for e := 0; e < 2; e++ {
			j := rng.Intn(n)
			if j != i {
				edges = append(edges, [3]float64{float64(i), float64(j), 0.05 + rng.Float64()})
			}
		}
	}
	return chainFromEdges(n, edges)
}

// TestBackendRegistry pins the backend set and lookup errors.
func TestBackendRegistry(t *testing.T) {
	names := SolverBackendNames()
	want := []string{BackendAuto, BackendGMRES, BackendILUBiCGSTAB}
	if !slices.Equal(names, want) {
		t.Fatalf("backends %v, want %v", names, want)
	}
	for _, name := range want {
		b, err := SolverBackendByName(name)
		if err != nil {
			t.Errorf("backend %q not resolvable: %v", name, err)
		} else if b.Name() != name {
			t.Errorf("backend %q resolved to %q", name, b.Name())
		}
	}
	for _, name := range []string{"no-such-solver", "sor-cascade"} {
		if _, err := SolverBackendByName(name); err == nil {
			t.Errorf("unknown backend name %q resolved without error", name)
		}
	}
}

// TestBackendsAgreeOnMTTA cross-checks every backend against the dense-LU
// reference on randomized absorbing chains: identical sojourn vectors to
// solver tolerance.
func TestBackendsAgreeOnMTTA(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(40)
		ref := randAbsorbingChain(rng, n)
		at := ref.subGeneratorT()
		rhs := linalg.NewVector(ref.NumTransient())
		rhs[ref.tIdx[0]] = -1
		want, err := linalg.SolveDense(at.Dense(), rhs)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range SolverBackendNames() {
			b, err := SolverBackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			chain := chainLike(ref)
			chain.SetSolver(b)
			sol, err := chain.Solve(0)
			if err != nil {
				t.Fatalf("trial %d backend %s: %v", trial, name, err)
			}
			y := sol.SojournTimes()
			for ti, i := range ref.tRev {
				if !approx(y[i], want[ti], 1e-9) {
					t.Fatalf("trial %d backend %s: y[%d] = %g, dense LU %g", trial, name, i, y[i], want[ti])
				}
			}
		}
	}
}

// chainLike rebuilds a chain over the same generator so each backend pays
// its own cold solve (Chain caches are per instance).
func chainLike(c *Chain) *Chain {
	nc, err := NewChain(c.Generator())
	if err != nil {
		panic(err)
	}
	nc.solver = c.solver
	return nc
}

func refWithSolver(c *Chain, b SolverBackend) *Chain {
	nc := chainLike(c)
	nc.SetSolver(b)
	return nc
}

// TestBackendIterationCounters pins that Krylov solves account their
// iterations to the per-backend counters the bench harness reports.
func TestBackendIterationCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randAbsorbingChain(rng, 60)
	b, err := SolverBackendByName(BackendILUBiCGSTAB)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSolver(b)
	before := SolveIterationsByBackend()[BackendILUBiCGSTAB]
	globalBefore := SolveIterations()
	if _, err := c.Solve(0); err != nil {
		t.Fatal(err)
	}
	after := SolveIterationsByBackend()[BackendILUBiCGSTAB]
	if after <= before {
		t.Errorf("ilu-bicgstab counter did not advance: %d -> %d", before, after)
	}
	if SolveIterations() <= globalBefore {
		t.Error("global iteration counter did not advance")
	}
}

// TestChainILUFactorsCached pins that the chain computes its ILU(0) factors
// once and reuses them across solves.
func TestChainILUFactorsCached(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randAbsorbingChain(rng, 40)
	b, err := SolverBackendByName(BackendILUBiCGSTAB)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSolver(b)
	if _, err := c.Solve(0); err != nil {
		t.Fatal(err)
	}
	f1, err := c.iluForSubT()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(0); err != nil {
		t.Fatal(err)
	}
	f2, err := c.iluForSubT()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("ILU(0) factors were recomputed between solves of the same chain")
	}
}
