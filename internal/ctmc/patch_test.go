package ctmc

import (
	"testing"

	"repro/internal/spn"
)

// ringNet is the SPN form of a birth-death walk over n transient states
// (A holds k of n-1 tokens, B the rest) with absorption at rate 0.05 from
// every state: the n walk states form one strongly connected component,
// which the direct solve declines once n exceeds directMaxBlock. scale
// multiplies the forward rate, so nets of different scales induce the
// same reachability graph with different edge rates.
func ringNet(scale float64) (*spn.Net, spn.Marking) {
	net := spn.New()
	a, b := net.AddPlace("A"), net.AddPlace("B")
	alive, dead := net.AddPlace("alive"), net.AddPlace("dead")
	net.MustAddTransition(&spn.Transition{
		Name:    "fwd",
		Inputs:  []spn.Arc{{Place: a, Weight: 1}, {Place: alive, Weight: 1}},
		Outputs: []spn.Arc{{Place: b, Weight: 1}, {Place: alive, Weight: 1}},
	})
	net.MustAddTransition(&spn.Transition{
		Name:    "back",
		Inputs:  []spn.Arc{{Place: b, Weight: 1}, {Place: alive, Weight: 1}},
		Outputs: []spn.Arc{{Place: a, Weight: 1}, {Place: alive, Weight: 1}},
	})
	net.MustAddTransition(&spn.Transition{
		Name:    "die",
		Inputs:  []spn.Arc{{Place: alive, Weight: 1}},
		Outputs: []spn.Arc{{Place: dead, Weight: 1}},
	})
	net.SetRates(func(m spn.Marking, out []float64) {
		out[0] = scale
		out[1] = 0.5 + float64(m[a]%3)
		out[2] = 0.05
	})
	const n = 100
	return net, spn.Marking{n - 1, 0, 1, 0}
}

// TestPatchedChainRescuesDeclinedPattern pins the patched solve of a
// pattern the direct solve declines: every patched point re-solves
// through the working chain's ladder on one fresh ILU(0) factorization
// of the patched values (one Refactorizations tick per point) and
// matches dense LU of a chain assembled from scratch to 1e-10.
func TestPatchedChainRescuesDeclinedPattern(t *testing.T) {
	net, m0 := ringNet(1)
	g, err := net.Explore(m0, spn.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	donor := FromGraph(g)
	donor.SetSolver(mustBackend(t, BackendAuto))
	pc, err := NewPatchedChain(donor, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{240, 1, 17} {
		rerated, _ := ringNet(scale)
		pg, err := g.CloneForRerate(rerated)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Rerate(); err != nil {
			t.Fatal(err)
		}
		if err := pc.PatchRates(pg); err != nil {
			t.Fatal(err)
		}
		refactors, patched := Refactorizations(), PatchedSolves()
		sol, err := pc.Solve(pg.Initial)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if got := Refactorizations() - refactors; got != 1 {
			t.Errorf("scale %g: %d ILU(0) refactorizations, want 1", scale, got)
		}
		if got := PatchedSolves() - patched; got != 1 {
			t.Errorf("scale %g: %d patched solves counted, want 1", scale, got)
		}
		if !pc.Chain().dirSubT.declined() {
			t.Fatalf("scale %g: the direct solve did not decline the %d-state SCC", scale, pc.Chain().NumTransient())
		}
		want := denseReference(t, FromGraph(pg), pg.Initial)
		y := sol.SojournTimes()
		for i := range want {
			if !approx(y[i], want[i], 1e-10) {
				t.Fatalf("scale %g: y[%d] = %g, dense LU %g", scale, i, y[i], want[i])
			}
		}
	}
}
