package spn

import (
	"strings"
	"testing"
)

// buildCounterNet returns a net with one place holding n tokens and a
// single consuming transition, whose reachability graph has exactly n+1
// states in a line.
func buildCounterNet(n int) (*Net, Marking) {
	net := New()
	p := net.AddPlace("P")
	net.MustAddTransition(&Transition{
		Name:   "consume",
		Inputs: []Arc{{Place: p, Weight: 1}},
	})
	net.SetRates(func(m Marking, out []float64) { out[0] = float64(m[p]) })
	return net, Marking{n}
}

// TestExploreMaxStatesBoundary pins the off-by-one fix: the bound is
// checked before insertion, so a state space of exactly MaxStates succeeds
// while MaxStates-1 fails — and no run ever materializes MaxStates+1
// states.
func TestExploreMaxStatesBoundary(t *testing.T) {
	const tokens = 9 // 10 reachable states
	net, m0 := buildCounterNet(tokens)

	g, err := net.Explore(m0, ExploreOpts{MaxStates: tokens + 1})
	if err != nil {
		t.Fatalf("Explore with MaxStates == state count: %v", err)
	}
	if g.NumStates() != tokens+1 {
		t.Fatalf("got %d states, want %d", g.NumStates(), tokens+1)
	}

	if _, err := net.Explore(m0, ExploreOpts{MaxStates: tokens}); err == nil {
		t.Fatal("Explore with MaxStates one below the state count should fail")
	} else if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestMarkingTableLookupAllocs pins the zero-allocation contract of the
// interned marking lookup: probing for an already-interned marking — the
// operation exploration performs once per enabled transition per state —
// must not allocate.
func TestMarkingTableLookupAllocs(t *testing.T) {
	net, m0 := buildCounterNet(50)
	g, err := net.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	probe := make(Marking, 1)
	probe[0] = 25
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := g.StateIndex(probe); !ok {
			t.Fatal("interned marking not found")
		}
	}); n != 0 {
		t.Fatalf("StateIndex allocates %v per lookup, want 0", n)
	}
}

// TestMarkingTablePackedFallback drives the table out of packed mode: with
// one place the packed width is 64 bits, so force many places instead —
// with 17 places packing is disabled outright; with 16 places counts of
// 2^4 and above overflow the 4-bit fields and trigger the hashed rebuild.
func TestMarkingTablePackedFallback(t *testing.T) {
	const places = 16
	net := New()
	idx := make([]int, places)
	for i := range idx {
		idx[i] = net.AddPlace(string(rune('a' + i)))
	}
	// One transition moves 5 tokens at a time from place 0 to place 1, so
	// place 1 reaches 30 > 2^4-1 and the packed encoding overflows.
	net.MustAddTransition(&Transition{
		Name:    "shift",
		Inputs:  []Arc{{Place: idx[0], Weight: 5}},
		Outputs: []Arc{{Place: idx[1], Weight: 5}},
	})
	net.SetRates(func(m Marking, out []float64) { out[0] = 1 })
	m0 := make(Marking, places)
	m0[0] = 30
	g, err := net.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 7 { // 30/5 + 1 markings
		t.Fatalf("got %d states, want 7", g.NumStates())
	}
	if g.table.packed {
		t.Fatal("table should have fallen back to hashed mode")
	}
	// Every state remains findable after the rebuild.
	for i, s := range g.States {
		got, ok := g.StateIndex(s)
		if !ok || got != i {
			t.Fatalf("state %d not found after fallback (got %d, ok=%v)", i, got, ok)
		}
	}
}

// TestStateIndexMisses exercises lookups of unreachable markings in both
// table modes.
func TestStateIndexMisses(t *testing.T) {
	net, m0 := buildCounterNet(5)
	g, err := net.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.StateIndex(Marking{6}); ok {
		t.Fatal("unreachable marking reported present")
	}
	if _, ok := g.StateIndex(Marking{1, 2}); ok {
		t.Fatal("wrong-arity marking reported present")
	}
	// A count too wide to pack cannot be interned; the lookup must report
	// a miss without mutating the table.
	if _, ok := g.StateIndex(Marking{1 << 62}); ok {
		t.Fatal("unpackable marking reported present")
	}
	if !g.table.packed {
		t.Fatal("miss lookup must not flip the table out of packed mode")
	}
}
