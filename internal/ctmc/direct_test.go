package ctmc

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// ringChain builds n transient states on a bidirectional ring, each also
// absorbed into state n at rate 0.05: one strongly connected component of
// n states, which the direct solve declines once n exceeds directMaxBlock.
func ringChain(n int) *Chain {
	edges := make([][3]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		edges = append(edges,
			[3]float64{float64(i), float64((i + 1) % n), 1},
			[3]float64{float64(i), float64((i + n - 1) % n), 0.5 + float64(i%3)},
			[3]float64{float64(i), float64(n), 0.05})
	}
	return chainFromEdges(n+1, edges)
}

func mustBackend(t *testing.T, name string) SolverBackend {
	t.Helper()
	b, err := SolverBackendByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAutoAnswersThroughDirectRung pins that an auto solve of a nearly
// acyclic chain is answered by the exact block-triangular solve: no
// iterative backend spends an iteration, no fallback is counted, the
// blocktri-direct histogram records the solve, and the answer matches
// dense LU to 1e-12.
func TestAutoAnswersThroughDirectRung(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randAbsorbingChain(rng, 40)
	want := denseReference(t, ref, 0)

	c := refWithSolver(ref, mustBackend(t, BackendAuto))
	itersBefore, fallbacksBefore := SolveIterationsByBackend(), Fallbacks()
	answersBefore := solveLatencyHist[blockTriBackend].Count()
	sol, err := c.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	y := sol.SojournTimes()
	for i := range want {
		if !approx(y[i], want[i], 1e-12) {
			t.Fatalf("y[%d] = %g, dense LU %g", i, y[i], want[i])
		}
	}
	if c.dirSubT.f == nil {
		t.Fatal("no block-triangular factorization cached on the chain after an auto solve")
	}
	after := SolveIterationsByBackend()
	for _, name := range []string{BackendILUBiCGSTAB, BackendGMRES} {
		if d := after[name] - itersBefore[name]; d != 0 {
			t.Errorf("%s spent %d iterations; the direct rung should have answered", name, d)
		}
	}
	if d := Fallbacks() - fallbacksBefore; d != 0 {
		t.Errorf("%d fallbacks counted on a direct solve", d)
	}
	if solveLatencyHist[blockTriBackend].Count() == answersBefore {
		t.Error("the blocktri-direct solve histogram did not record the direct answer")
	}
}

// TestDirectRungDeclinesLargeSCC pins the decline path: a strongly
// connected component over directMaxBlock states sends auto to its
// size-picked iterative backend with the same answer, and the pattern is
// analyzed once per chain, not once per solve.
func TestDirectRungDeclinesLargeSCC(t *testing.T) {
	const n = 100
	ref := ringChain(n)
	want := denseReference(t, ref, 0)
	iluSol, err := refWithSolver(ref, mustBackend(t, BackendILUBiCGSTAB)).Solve(0)
	if err != nil {
		t.Fatal(err)
	}

	c := refWithSolver(ref, mustBackend(t, BackendAuto))
	analysesBefore := directAnalyses.Load()
	sol, err := c.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	y := sol.SojournTimes()
	for i := range want {
		if !approx(y[i], iluSol.SojournTimes()[i], 1e-10) || !approx(y[i], want[i], 1e-10) {
			t.Fatalf("y[%d] = %g, ilu-bicgstab %g, dense LU %g", i, y[i], iluSol.SojournTimes()[i], want[i])
		}
	}
	if !c.dirSubT.declined() {
		t.Fatalf("a %d-state SCC was not declined (block budget %d)", n, directMaxBlock)
	}

	rhs := linalg.NewVector(c.NumStates())
	for rep := 0; rep < 5; rep++ {
		rhs[rep] = -1
		x, err := c.SolveSubTT(rhs)
		if err != nil {
			t.Fatal(err)
		}
		if r := subTResidual(c, x, rhs); r > 1e-10 {
			t.Fatalf("SolveSubTT rep %d residual %g", rep, r)
		}
	}
	if got := directAnalyses.Load() - analysesBefore; got != 1 {
		t.Errorf("declined pattern analyzed %d times across repeated solves, want 1", got)
	}
}

// subTResidual returns ||Q_TT^T x - rhs||_2 over the transient states.
func subTResidual(c *Chain, x, rhs linalg.Vector) float64 {
	xt := linalg.NewVector(c.NumTransient())
	bt := linalg.NewVector(c.NumTransient())
	for ti, i := range c.tRev {
		xt[ti], bt[ti] = x[i], rhs[i]
	}
	return linalg.ResidualNorm(c.subGeneratorT(), xt, bt)
}

// TestExplicitBackendsSkipDirectRung pins that an explicitly selected
// backend keeps its own solve: the direct rung belongs to auto only.
func TestExplicitBackendsSkipDirectRung(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randAbsorbingChain(rng, 30)
	for _, name := range []string{BackendILUBiCGSTAB, BackendGMRES} {
		c := refWithSolver(ref, mustBackend(t, name))
		if _, err := c.Solve(0); err != nil {
			t.Fatal(err)
		}
		if c.dirSubT.analyzed {
			t.Errorf("backend %s ran the direct rung's analysis", name)
		}
	}
}

// TestDirectRungAllStartsReward pins ExpectedRewardAllStarts, which solves
// Q_TT rather than its transpose, on the direct rung against dense LU.
func TestDirectRungAllStartsReward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := randAbsorbingChain(rng, 35)
	ones := linalg.NewVector(ref.NumStates())
	for i := range ones {
		ones[i] = 1
	}
	c := refWithSolver(ref, mustBackend(t, BackendAuto))
	w, err := c.ExpectedRewardAllStarts(ones)
	if err != nil {
		t.Fatal(err)
	}
	if c.dirSub.f == nil {
		t.Fatal("all-starts solve did not go through the direct rung")
	}
	rhs := linalg.NewVector(c.NumTransient())
	for ti := range rhs {
		rhs[ti] = -1
	}
	want, err := linalg.SolveDense(c.subGenerator().Dense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	for ti, i := range c.tRev {
		if !approx(w[i], want[ti], 1e-12) {
			t.Fatalf("w[%d] = %g, dense LU %g", i, w[i], want[ti])
		}
	}
}

// TestDirectRungConcurrentSolves shares one chain's cached factorization
// across goroutines, as the engine's prepared cache does: concurrent
// sojourn and SolveSubTT solves must all match dense LU.
func TestDirectRungConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := randAbsorbingChain(rng, 30)
	want := denseReference(t, ref, 0)
	c := refWithSolver(ref, mustBackend(t, BackendAuto))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var y linalg.Vector
				if (g+rep)%2 == 0 {
					sol, err := c.Solve(0)
					if err != nil {
						t.Error(err)
						return
					}
					y = sol.SojournTimes()
				} else {
					rhs := linalg.NewVector(c.NumStates())
					rhs[0] = -1
					x, err := c.SolveSubTT(rhs)
					if err != nil {
						t.Error(err)
						return
					}
					y = x
				}
				for i := range want {
					if !approx(y[i], want[i], 1e-12) {
						t.Errorf("goroutine %d rep %d: y[%d] = %g, dense LU %g", g, rep, i, y[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDirectDeclinesCountedByReason pins repro_solver_direct_declines_total:
// a cyclic component over directMaxBlock states counts one scc_too_large
// decline however often the chain is solved, and a singular diagonal block
// counts one singular decline.
func TestDirectDeclinesCountedByReason(t *testing.T) {
	counters := []*obs.Counter{declinedSCC, declinedSingular, declinedStalled}
	snapshot := func() []uint64 {
		v := make([]uint64, len(counters))
		for i, c := range counters {
			v[i] = c.Value()
		}
		return v
	}
	check := func(before []uint64, want ...uint64) {
		t.Helper()
		for i, c := range counters {
			if d := c.Value() - before[i]; d != want[i] {
				t.Errorf("decline counter %d moved by %d, want %d (scc_too_large, singular, stalled)", i, d, want[i])
			}
		}
	}

	before := snapshot()
	c := refWithSolver(ringChain(directMaxBlock+36), mustBackend(t, BackendAuto))
	for rep := 0; rep < 3; rep++ {
		if _, err := c.Solve(0); err != nil {
			t.Fatal(err)
		}
	}
	check(before, 1, 0, 0)

	// Two states that feed each other and nothing else: the diagonal block
	// [[-1, 1], [1, -1]] has no nonzero second pivot.
	b := linalg.NewSparseBuilder(2, 2)
	b.Add(0, 0, -1)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, -1)
	before = snapshot()
	var d blockTriDirect
	if _, _, ok := d.solve(b.Build(), linalg.Vector{1, 1}); ok {
		t.Fatal("direct solve accepted a singular block")
	}
	check(before, 0, 1, 0)
}
