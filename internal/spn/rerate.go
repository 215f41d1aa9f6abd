package spn

import (
	"errors"
	"fmt"
)

// Value-only re-rating: a rebuilt Net whose enabling structure matches the
// one a Graph was explored under induces the *same* reachability graph with
// different edge rates. CloneForRerate gives the incremental re-solve path
// a graph that shares the expensive immutable structure (interned states,
// marking table, edge topology) and owns its edge rates, which the path
// rewrites in place from its rate keys (core/ratekeys.go) before
// ctmc.PatchedChain scatters them into the cached CSR pattern.
//
// Rerate is the per-state replay of exploration's enabling scan. No
// production path calls it: it is the oracle the tests hold the keyed
// re-rate and its per-key structural check to.

// ErrStructureChanged reports that a Rerate replay found a different
// enabled-transition set than the one the graph was explored under — the
// parameter change was structural after all, and the caller must fall back
// to a full re-exploration.
var ErrStructureChanged = errors.New("spn: enabled-transition structure changed; graph must be re-explored")

// CloneForRerate returns a graph that shares g's immutable structure
// (states, marking table, place index, initial state) but owns a private
// copy of the edge arena and evaluates rates against net. The clone is
// safe to Rerate repeatedly without disturbing g; the shared state storage
// must not be mutated through either graph (nothing in this package does).
//
// net must have the same place count as g's net; transition structure is
// not checked here — Rerate verifies it edge by edge on every call.
func (g *Graph) CloneForRerate(net *Net) (*Graph, error) {
	if net.NumPlaces() != len(g.Net.placeNames) {
		return nil, fmt.Errorf("spn: clone net has %d places, graph was explored with %d",
			net.NumPlaces(), len(g.Net.placeNames))
	}
	clone := &Graph{
		Net:      net,
		States:   g.States,
		Initial:  g.Initial,
		PlaceIdx: g.PlaceIdx,
		table:    g.table,
		nEdges:   g.nEdges,
		edgeCap:  g.nEdges,
	}
	// One flat private arena, re-windowed per state exactly like Explore's.
	flat := make([]Edge, 0, g.nEdges)
	clone.Edges = make([][]Edge, len(g.Edges))
	for i, row := range g.Edges {
		start := len(flat)
		flat = append(flat, row...)
		clone.Edges[i] = flat[start:len(flat):len(flat)]
	}
	return clone, nil
}

// Rerate replays Explore's per-state enabling scan under the current g.Net
// — one rate-function call per state — and rewrites every edge's Rate in
// place. It verifies, state by state and edge by edge, that the
// enabled-transition sequence is identical to the one the graph holds; any
// mismatch (a transition newly enabled, newly disabled, or reordered)
// returns ErrStructureChanged, and a non-finite rate returns an error
// naming the state and the transition. Either way the graph's rates are
// left partially updated and the caller must discard them. Once the rate
// scratch is sized, a Rerate allocates nothing.
//
// Successor states are not recomputed: firing depends only on arc
// structure, which an identically shaped net reproduces, and a net whose
// arcs differ cannot match the per-state transition sequence of the
// original exploration anyway (the rate/token scan would diverge first or
// the rates would be wrong in ways the solver-level equivalence tests
// catch).
func (g *Graph) Rerate() error {
	n := g.Net
	if n.rates == nil {
		return fmt.Errorf("spn: net has no rate function")
	}
	if len(g.rates) != len(n.trans) {
		g.rates = make([]float64, len(n.trans))
	}
	rates := g.rates
	for si, m := range g.States {
		n.rates(m, rates)
		edges := g.Edges[si]
		k := 0
		for ti, t := range n.trans {
			ok, finite := enabled(t, rates[ti], m)
			if !finite {
				return n.rateError(si, ti, rates[ti], m)
			}
			if !ok {
				continue
			}
			if k >= len(edges) || edges[k].Transition != ti {
				return fmt.Errorf("%w (state %d, transition %q newly enabled)",
					ErrStructureChanged, si, t.Name)
			}
			edges[k].Rate = rates[ti]
			k++
		}
		if k != len(edges) {
			return fmt.Errorf("%w (state %d, transition %q newly disabled)",
				ErrStructureChanged, si, n.trans[edges[k].Transition].Name)
		}
	}
	return nil
}
