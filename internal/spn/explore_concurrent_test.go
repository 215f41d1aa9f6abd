package spn

import (
	"fmt"
	"sync"
	"testing"
)

// tokenRing builds a bounded net with pure (concurrency-safe) closures: cap
// tokens circulate over `places` places, one transition per ordered pair of
// adjacent places plus a consuming sink, giving a state space that spans
// several BFS levels.
func tokenRing(places, cap int) (*Net, Marking) {
	n := New()
	for i := 0; i < places; i++ {
		n.AddPlace(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < places; i++ {
		from, to := i, (i+1)%places
		rate := 0.5 + float64(i)
		n.MustAddTransition(&Transition{
			Name:    fmt.Sprintf("t%d", i),
			Inputs:  []Arc{{Place: from, Weight: 1}},
			Outputs: []Arc{{Place: to, Weight: 1}},
			Rate: func(m Marking) float64 {
				return rate * float64(m[from])
			},
		})
	}
	// A consuming transition makes some states absorbing-reachable and
	// keeps the space bounded below the full multinomial.
	n.MustAddTransition(&Transition{
		Name:   "sink",
		Inputs: []Arc{{Place: 0, Weight: 2}},
		Rate: func(m Marking) float64 {
			return 0.25 * float64(m[0])
		},
	})
	m0 := make(Marking, places)
	m0[0] = cap
	return n, m0
}

// graphsIdentical asserts g's states, edges and state index are identical
// to want's.
func graphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumStates() != want.NumStates() || got.NumEdges() != want.NumEdges() || got.Initial != want.Initial {
		t.Fatalf("%d states, %d edges, initial %d; want %d, %d, %d",
			got.NumStates(), got.NumEdges(), got.Initial, want.NumStates(), want.NumEdges(), want.Initial)
	}
	for i := range want.States {
		if !markingEqual(want.States[i], got.States[i]) {
			t.Fatalf("state %d: %v, want %v", i, got.States[i], want.States[i])
		}
		if len(want.Edges[i]) != len(got.Edges[i]) {
			t.Fatalf("state %d: %d edges, want %d", i, len(got.Edges[i]), len(want.Edges[i]))
		}
		for j, e := range want.Edges[i] {
			if got.Edges[i][j] != e {
				t.Fatalf("state %d edge %d: %+v, want %+v", i, j, got.Edges[i][j], e)
			}
		}
		if idx, ok := got.StateIndex(want.States[i]); !ok || idx != i {
			t.Fatalf("StateIndex(%v) = %d,%v want %d,true", want.States[i], idx, ok, i)
		}
	}
}

// TestExploreParallelDeterministic pins that Explore only reads its net:
// P goroutines exploring one net (pure rate closures) at the same time
// each get the graph a lone exploration builds. The race job runs it too.
func TestExploreParallelDeterministic(t *testing.T) {
	net, m0 := tokenRing(5, 6)
	want, err := net.Explore(m0, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.NumStates() < 100 {
		t.Fatalf("toy net too small: %d states", want.NumStates())
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			graphs := make([]*Graph, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for i := range graphs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					graphs[i], errs[i] = net.Explore(m0, ExploreOpts{})
				}(i)
			}
			wg.Wait()
			for i, g := range graphs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				graphsIdentical(t, want, g)
			}
		})
	}
}
