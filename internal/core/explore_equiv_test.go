package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/spn"
)

// refGraph is the reachability graph produced by a reference exploration
// that replicates the seed implementation: string-keyed map, BFS, a fresh
// clone per fired marking. It exists only to cross-check the interned
// fast path.
type refGraph struct {
	states []spn.Marking
	index  map[string]int
	edges  [][]spn.Edge
}

// refExplore explores net from m0 using the pre-interning algorithm,
// firing through the exported transition structure and deciding
// enabledness and rates through the reference closures (refRates), one
// transition at a time — never through the net's rate function.
func refExplore(net *spn.Net, refs []refTransition, m0 spn.Marking, maxStates int) (*refGraph, error) {
	trans := net.Transitions()
	g := &refGraph{index: make(map[string]int)}
	add := func(m spn.Marking) int {
		k := m.Key()
		if i, ok := g.index[k]; ok {
			return i
		}
		g.states = append(g.states, m)
		g.edges = append(g.edges, nil)
		g.index[k] = len(g.states) - 1
		return len(g.states) - 1
	}
	add(m0.Clone())
	for head := 0; head < len(g.states); head++ {
		m := g.states[head]
		for ti, t := range trans {
			rate, ok := refEnabled(t, refs[ti], m)
			if !ok {
				continue
			}
			next := m.Clone()
			for _, a := range t.Inputs {
				next[a.Place] -= a.Weight
			}
			for _, a := range t.Outputs {
				next[a.Place] += a.Weight
			}
			to := add(next)
			if len(g.states) > maxStates {
				return nil, fmt.Errorf("exceeded %d states", maxStates)
			}
			g.edges[head] = append(g.edges[head], spn.Edge{To: to, Rate: rate, Transition: ti})
		}
	}
	return g, nil
}

// canonicalEdges renders a graph as a sorted multiset of marking-keyed
// edges "fromKey --t(rate)--> toKey", which is invariant under state
// renumbering.
func canonicalEdges(states []spn.Marking, edges [][]spn.Edge) []string {
	var out []string
	for i, es := range edges {
		for _, e := range es {
			out = append(out, fmt.Sprintf("%s|%d|%.17g|%s",
				states[i].Key(), e.Transition, e.Rate, states[e.To].Key()))
		}
	}
	sort.Strings(out)
	return out
}

func absorbingKeys(states []spn.Marking, edges [][]spn.Edge) []string {
	var out []string
	for i := range states {
		if len(edges[i]) == 0 {
			out = append(out, states[i].Key())
		}
	}
	sort.Strings(out)
	return out
}

// TestExploreMatchesReference asserts that the interned, direct-assembly
// exploration produces a state space isomorphic to the reference
// string-keyed path driven by the reference rate closures — same state
// count, same edge multiset (transition, exact rate, endpoint markings),
// same absorbing set — across a parameter grid of the paper's models, and
// that every edge rate is bitwise the reference closure's.
func TestExploreMatchesReference(t *testing.T) {
	grid := refExploreGrid()
	for _, v := range grid {
		t.Run(v.name, func(t *testing.T) {
			model, err := BuildModel(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := model.Explore()
			if err != nil {
				t.Fatal(err)
			}
			assertEdgesMatchRef(t, got, model)
			refModel, err := BuildModel(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refExplore(refModel.Net, refRates(refModel), refModel.Initial, v.cfg.EffectiveMaxStates())
			if err != nil {
				t.Fatal(err)
			}
			if got.NumStates() != len(want.states) {
				t.Fatalf("state count %d, reference %d", got.NumStates(), len(want.states))
			}
			if g, w := got.States[got.Initial].Key(), want.states[0].Key(); g != w {
				t.Fatalf("initial state %s, reference %s", g, w)
			}
			gotEdges := canonicalEdges(got.States, got.Edges)
			wantEdges := canonicalEdges(want.states, want.edges)
			if len(gotEdges) != len(wantEdges) {
				t.Fatalf("edge count %d, reference %d", len(gotEdges), len(wantEdges))
			}
			for i := range gotEdges {
				if gotEdges[i] != wantEdges[i] {
					t.Fatalf("edge multiset differs:\n  got  %s\n  want %s", gotEdges[i], wantEdges[i])
				}
			}
			gotAbs := absorbingKeys(got.States, got.Edges)
			wantAbs := absorbingKeys(want.states, want.edges)
			if len(gotAbs) != len(wantAbs) {
				t.Fatalf("absorbing count %d, reference %d", len(gotAbs), len(wantAbs))
			}
			for i := range gotAbs {
				if gotAbs[i] != wantAbs[i] {
					t.Fatalf("absorbing sets differ at %q vs %q", gotAbs[i], wantAbs[i])
				}
			}
		})
	}
}
