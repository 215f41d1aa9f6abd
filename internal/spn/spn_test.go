package spn

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildBirthDeath constructs a birth-death net on a single place with
// capacity cap: birth rate lambda (guarded below cap), death rate mu per
// token.
func buildBirthDeath(capacity int, lambda, mu float64) (*Net, Marking) {
	n := New()
	p := n.AddPlace("P")
	n.MustAddTransition(&Transition{
		Name:    "birth",
		Outputs: []Arc{{Place: p, Weight: 1}},
	})
	n.MustAddTransition(&Transition{
		Name:   "death",
		Inputs: []Arc{{Place: p, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) {
		out[0] = 0
		if m[p] < capacity {
			out[0] = lambda
		}
		out[1] = mu * float64(m[p])
	})
	return n, Marking{0}
}

func TestExploreBirthDeathStateCount(t *testing.T) {
	n, m0 := buildBirthDeath(5, 1, 2)
	g, err := n.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 6 {
		t.Fatalf("states = %d, want 6", g.NumStates())
	}
	if len(g.AbsorbingStates()) != 0 {
		t.Fatalf("birth-death chain must have no absorbing states, got %v", g.AbsorbingStates())
	}
	// State with 0 tokens has only the birth edge; interior states have 2.
	if got := len(g.Edges[g.Initial]); got != 1 {
		t.Errorf("initial state edges = %d, want 1", got)
	}
}

func TestExploreRatesMarkingDependent(t *testing.T) {
	n, m0 := buildBirthDeath(3, 1, 2)
	g, err := n.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.States {
		k := g.States[i][0]
		for _, e := range g.Edges[i] {
			name := g.Net.Transitions()[e.Transition].Name
			switch name {
			case "birth":
				if e.Rate != 1 {
					t.Errorf("state %d birth rate %v, want 1", i, e.Rate)
				}
			case "death":
				if want := 2 * float64(k); e.Rate != want {
					t.Errorf("state %d death rate %v, want %v", i, e.Rate, want)
				}
			}
		}
	}
}

func TestAbsorbingDetection(t *testing.T) {
	// Simple two-place net: tokens drain from A to B; once A is empty the
	// state is absorbing.
	n := New()
	a := n.AddPlace("A")
	b := n.AddPlace("B")
	n.MustAddTransition(&Transition{
		Name:    "drain",
		Inputs:  []Arc{{Place: a, Weight: 1}},
		Outputs: []Arc{{Place: b, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) { out[0] = float64(m[a]) })
	g, err := n.Explore(Marking{3, 0}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	abs := g.AbsorbingStates()
	if len(abs) != 1 {
		t.Fatalf("absorbing = %v, want exactly one", abs)
	}
	if g.Mark(abs[0], "A") != 0 || g.Mark(abs[0], "B") != 3 {
		t.Errorf("absorbing state marking wrong: %v", g.States[abs[0]])
	}
}

func TestGuardDisablesTransition(t *testing.T) {
	// A zero rate that freezes the net when the failure place is marked
	// makes every post-failure state absorbing, mirroring the paper's
	// C1/C2 absorption construction.
	n := New()
	up := n.AddPlace("Up")
	fail := n.AddPlace("Fail")
	n.MustAddTransition(&Transition{
		Name:    "failStep",
		Inputs:  []Arc{{Place: up, Weight: 1}},
		Outputs: []Arc{{Place: fail, Weight: 1}},
	})
	n.MustAddTransition(&Transition{
		Name:    "churn",
		Inputs:  []Arc{{Place: up, Weight: 1}},
		Outputs: []Arc{{Place: up, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) {
		out[0], out[1] = 0, 0
		if m[fail] == 0 {
			out[0], out[1] = 1, 5
		}
	})
	g, err := n.Explore(Marking{2, 0}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.AbsorbingStates() {
		if g.Mark(s, "Fail") == 0 {
			t.Errorf("state %d absorbing without failure token: %v", s, g.States[s])
		}
	}
	if len(g.AbsorbingStates()) == 0 {
		t.Fatal("expected at least one absorbing failure state")
	}
}

func TestSelfLoopChurnNotDuplicated(t *testing.T) {
	// A transition producing the marking it consumed creates a self-loop
	// edge; exploration must terminate and record it once per firing.
	n := New()
	p := n.AddPlace("P")
	n.MustAddTransition(&Transition{
		Name:    "loop",
		Inputs:  []Arc{{Place: p, Weight: 1}},
		Outputs: []Arc{{Place: p, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) { out[0] = 3 })
	g, err := n.Explore(Marking{1}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 1 {
		t.Fatalf("states = %d, want 1", g.NumStates())
	}
	if len(g.Edges[0]) != 1 || g.Edges[0][0].To != 0 {
		t.Fatalf("self loop not recorded: %+v", g.Edges[0])
	}
}

func TestArcWeights(t *testing.T) {
	// Pairwise consumption: transition needs 2 tokens per firing.
	n := New()
	p := n.AddPlace("P")
	q := n.AddPlace("Q")
	n.MustAddTransition(&Transition{
		Name:    "pair",
		Inputs:  []Arc{{Place: p, Weight: 2}},
		Outputs: []Arc{{Place: q, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) { out[0] = 1 })
	g, err := n.Explore(Marking{5, 0}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 -> 3 -> 1 tokens; final state (1,2) is absorbing. 3 states.
	if g.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", g.NumStates())
	}
	abs := g.AbsorbingStates()
	if len(abs) != 1 || g.Mark(abs[0], "P") != 1 || g.Mark(abs[0], "Q") != 2 {
		t.Fatalf("absorbing state wrong: %v", g.States[abs[0]])
	}
}

func TestMaxStatesEnforced(t *testing.T) {
	// Unbounded net: pure birth with no capacity guard.
	n := New()
	p := n.AddPlace("P")
	n.MustAddTransition(&Transition{
		Name:    "birth",
		Outputs: []Arc{{Place: p, Weight: 1}},
	})
	n.SetRates(func(m Marking, out []float64) { out[0] = 1 })
	if _, err := n.Explore(Marking{0}, ExploreOpts{MaxStates: 100}); err == nil {
		t.Fatal("unbounded net exploration did not error")
	}
}

func TestAddTransitionValidation(t *testing.T) {
	n := New()
	p := n.AddPlace("P")
	if err := n.AddTransition(&Transition{Name: ""}); err == nil {
		t.Error("unnamed transition accepted")
	}
	if err := n.AddTransition(&Transition{
		Name:   "t",
		Inputs: []Arc{{Place: 5, Weight: 1}},
	}); err == nil {
		t.Error("unknown place accepted")
	}
	if err := n.AddTransition(&Transition{
		Name:   "t",
		Inputs: []Arc{{Place: p, Weight: 0}},
	}); err == nil {
		t.Error("zero arc weight accepted")
	}
	if _, err := n.Explore(Marking{1}, ExploreOpts{}); err == nil {
		t.Error("net without a rate function explored")
	}
}

func TestInitialMarkingValidation(t *testing.T) {
	n := New()
	n.AddPlace("P")
	n.SetRates(func(Marking, []float64) {})
	if _, err := n.Explore(Marking{1, 2}, ExploreOpts{}); err == nil {
		t.Error("wrong-length marking accepted")
	}
	if _, err := n.Explore(Marking{-1}, ExploreOpts{}); err == nil {
		t.Error("negative marking accepted")
	}
}

func TestPlaceLookup(t *testing.T) {
	n := New()
	i := n.AddPlace("X")
	if n.AddPlace("X") != i {
		t.Error("duplicate AddPlace returned new index")
	}
	if n.Place("X") != i {
		t.Error("Place lookup mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown Place did not panic")
		}
	}()
	n.Place("missing")
}

func TestMarkingKeyUniqueProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ma := make(Marking, len(a))
		for i, v := range a {
			ma[i] = int(v)
		}
		mb := make(Marking, len(b))
		for i, v := range b {
			mb[i] = int(v)
		}
		sameKey := ma.Key() == mb.Key()
		same := len(ma) == len(mb)
		if same {
			for i := range ma {
				if ma[i] != mb[i] {
					same = false
					break
				}
			}
		}
		return sameKey == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenConservationProperty(t *testing.T) {
	// In a net whose transitions all move exactly one token, every
	// reachable state preserves the total token count.
	n := New()
	a := n.AddPlace("A")
	b := n.AddPlace("B")
	c := n.AddPlace("C")
	move := func(name string, from, to int) {
		n.MustAddTransition(&Transition{
			Name:    name,
			Inputs:  []Arc{{Place: from, Weight: 1}},
			Outputs: []Arc{{Place: to, Weight: 1}},
		})
	}
	move("ab", a, b)
	move("bc", b, c)
	move("ca", c, a)
	n.SetRates(func(m Marking, out []float64) { out[0], out[1], out[2] = 1, 2, 3 })
	g, err := n.Explore(Marking{4, 0, 0}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range g.States {
		if s.Total() != 4 {
			t.Fatalf("state %d total tokens %d, want 4", i, s.Total())
		}
	}
	// All (a,b,c) compositions of 4 into 3 parts are reachable: C(6,2)=15.
	if g.NumStates() != 15 {
		t.Fatalf("states = %d, want 15", g.NumStates())
	}
}

func TestExitRate(t *testing.T) {
	n, m0 := buildBirthDeath(2, 1.5, 0.5)
	g, err := n.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Find the state with 1 token: exit rate = 1.5 (birth) + 0.5 (death).
	for i := range g.States {
		if g.States[i][0] == 1 {
			if got := g.ExitRate(i); math.Abs(got-2.0) > 1e-12 {
				t.Errorf("exit rate = %v, want 2.0", got)
			}
		}
	}
}

func TestGraphString(t *testing.T) {
	n, m0 := buildBirthDeath(2, 1, 1)
	g, _ := n.Explore(m0, ExploreOpts{})
	s := g.String()
	if s == "" {
		t.Error("empty String()")
	}
}

// TestNonFiniteRateIsError pins that a NaN or infinite rate is an error
// naming the state and the transition, from Explore and from Rerate alike,
// never an edge: NaN passes a plain r <= 0 test, and +Inf would poison the
// generator.
func TestNonFiniteRateIsError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// A birth-death net whose death rate turns bad at 3 tokens.
		build := func(poisoned bool) *Net {
			n, _ := buildBirthDeath(5, 1, 2)
			n.SetRates(func(m Marking, out []float64) {
				out[0] = 0
				if m[0] < 5 {
					out[0] = 1
				}
				out[1] = 2 * float64(m[0])
				if poisoned && m[0] == 3 {
					out[1] = bad
				}
			})
			return n
		}
		wantMsg := func(err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("rate %v: no error", bad)
			}
			if errors.Is(err, ErrStructureChanged) {
				t.Fatalf("rate %v: reported as a structure change: %v", bad, err)
			}
			for _, want := range []string{"state", "{3}", `"death"`, "non-finite"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("rate %v: error %q does not name %s", bad, err, want)
				}
			}
		}
		_, err := build(true).Explore(Marking{0}, ExploreOpts{})
		wantMsg(err)

		g, err := build(false).Explore(Marking{0}, ExploreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		clone, err := g.CloneForRerate(build(true))
		if err != nil {
			t.Fatal(err)
		}
		wantMsg(clone.Rerate())
	}
}
