// Package spn implements a Stochastic Petri Net modeling engine: places,
// timed transitions with marking-dependent rates and enabling guard
// functions, and reachability-graph generation. The reachability graph of a
// bounded SPN, together with the exponential firing rates, defines a
// continuous-time Markov chain that package ctmc solves.
//
// The engine reproduces the modeling features the paper's SPN (Figure 1)
// needs: guard functions that disable every transition once a failure
// condition holds (creating absorbing states), marking-dependent rates such
// as mark(UCm)*D(md)*(1-Pfn), and small auxiliary places such as the group
// counter NG.
package spn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Marking is a token count per place, indexed by place index.
type Marking []int

// Clone returns a copy of m.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Key returns a compact comparable encoding of the marking. Exploration no
// longer uses string keys (see intern.go); Key remains for debugging and
// for cross-checking the interned index against a reference implementation.
func (m Marking) Key() string {
	buf := make([]byte, 0, len(m)*3)
	for i, v := range m {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// Total returns the total number of tokens in the marking.
func (m Marking) Total() int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// Arc connects a place to a transition (input) or a transition to a place
// (output) with a multiplicity (weight).
type Arc struct {
	Place  int // place index
	Weight int // tokens consumed/produced; must be >= 1
}

// RateFunc returns the (exponential) firing rate of a transition in the
// given marking. A non-positive return value disables the transition.
type RateFunc func(m Marking) float64

// GuardFunc is an additional enabling predicate evaluated on the marking.
type GuardFunc func(m Marking) bool

// Transition is a timed SPN transition.
type Transition struct {
	Name    string
	Inputs  []Arc
	Outputs []Arc
	Rate    RateFunc
	Guard   GuardFunc // nil means always enabled (subject to tokens)
}

// Net is a Stochastic Petri Net under construction.
type Net struct {
	placeNames []string
	placeIdx   map[string]int
	trans      []*Transition
}

// New returns an empty net.
func New() *Net {
	return &Net{placeIdx: make(map[string]int)}
}

// AddPlace registers a named place and returns its index. Adding a name
// twice returns the existing index.
func (n *Net) AddPlace(name string) int {
	if i, ok := n.placeIdx[name]; ok {
		return i
	}
	i := len(n.placeNames)
	n.placeNames = append(n.placeNames, name)
	n.placeIdx[name] = i
	return i
}

// Place returns the index of a previously added place; it panics on unknown
// names so that model-construction typos fail fast.
func (n *Net) Place(name string) int {
	i, ok := n.placeIdx[name]
	if !ok {
		panic(fmt.Sprintf("spn: unknown place %q", name))
	}
	return i
}

// NumPlaces returns the number of places added so far.
func (n *Net) NumPlaces() int { return len(n.placeNames) }

// PlaceNames returns the place names in index order.
func (n *Net) PlaceNames() []string {
	out := make([]string, len(n.placeNames))
	copy(out, n.placeNames)
	return out
}

// AddTransition registers a transition. Inputs/Outputs with zero weight are
// rejected. The rate function is mandatory.
func (n *Net) AddTransition(t *Transition) error {
	if t.Name == "" {
		return fmt.Errorf("spn: transition must be named")
	}
	if t.Rate == nil {
		return fmt.Errorf("spn: transition %q has no rate function", t.Name)
	}
	for _, a := range append(append([]Arc{}, t.Inputs...), t.Outputs...) {
		if a.Place < 0 || a.Place >= len(n.placeNames) {
			return fmt.Errorf("spn: transition %q references unknown place %d", t.Name, a.Place)
		}
		if a.Weight < 1 {
			return fmt.Errorf("spn: transition %q has arc weight %d < 1", t.Name, a.Weight)
		}
	}
	n.trans = append(n.trans, t)
	return nil
}

// MustAddTransition is AddTransition that panics on error, for model
// builders whose arcs are statically correct.
func (n *Net) MustAddTransition(t *Transition) {
	if err := n.AddTransition(t); err != nil {
		panic(err)
	}
}

// Transitions returns the registered transitions in insertion order.
func (n *Net) Transitions() []*Transition {
	out := make([]*Transition, len(n.trans))
	copy(out, n.trans)
	return out
}

// enabled reports whether t may fire in m and, if so, its rate.
func (n *Net) enabled(t *Transition, m Marking) (float64, bool) {
	for _, a := range t.Inputs {
		if m[a.Place] < a.Weight {
			return 0, false
		}
	}
	if t.Guard != nil && !t.Guard(m) {
		return 0, false
	}
	r := t.Rate(m)
	if r <= 0 {
		return 0, false
	}
	return r, true
}

// fireInto writes the successor marking of firing t in m into dst (a
// scratch marking the exploration loop reuses). The caller must have
// verified enabledness.
func fireInto(dst Marking, t *Transition, m Marking) {
	copy(dst, m)
	for _, a := range t.Inputs {
		dst[a.Place] -= a.Weight
	}
	for _, a := range t.Outputs {
		dst[a.Place] += a.Weight
	}
}

// Edge is one outgoing stochastic transition of a reachability-graph state.
type Edge struct {
	To         int     // destination state index
	Rate       float64 // exponential rate
	Transition int     // index into Net.Transitions()
}

// Graph is the reachability graph of a bounded SPN: the state space of the
// underlying CTMC. States are interned markings (stable subslices of a
// chunked arena) and every state's edge slice is a window into one shared
// edge arena, grouped by source state in index order — consumers that
// assemble matrices from the graph (ctmc.FromGraph) rely on that grouping
// to skip coordinate sorting.
type Graph struct {
	Net      *Net
	States   []Marking
	Edges    [][]Edge
	Initial  int
	PlaceIdx map[string]int

	table   *markingTable // marking -> state index, kept for StateIndex
	nEdges  int
	edgeCap int // capacity of the flat edge arena the Edges rows window
}

// ExploreOpts bounds state-space generation.
type ExploreOpts struct {
	// MaxStates aborts exploration before more than this many states are
	// materialized (default 2_000_000).
	MaxStates int
	// ExpectedStates pre-sizes the state and edge storage (optional hint).
	ExpectedStates int
}

// Explore generates the reachability graph from the initial marking using
// breadth-first search. It returns an error when the state space exceeds
// opts.MaxStates, which usually indicates an unbounded or mis-specified
// net; the bound is checked before each insertion, so no more than
// MaxStates states are ever materialized. Explore only reads the net, so
// a net whose rate and guard functions are pure may be explored from
// several goroutines at once.
func (n *Net) Explore(initial Marking, opts ExploreOpts) (*Graph, error) {
	if len(initial) != len(n.placeNames) {
		return nil, fmt.Errorf("spn: initial marking has %d places, net has %d", len(initial), len(n.placeNames))
	}
	for i, v := range initial {
		if v < 0 {
			return nil, fmt.Errorf("spn: initial marking negative at place %s", n.placeNames[i])
		}
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 2_000_000
	}
	hint := opts.ExpectedStates
	if hint <= 0 {
		hint = 1024
	}
	places := len(n.placeNames)
	g := &Graph{
		Net:      n,
		States:   make([]Marking, 0, hint),
		PlaceIdx: make(map[string]int, len(n.placeIdx)),
		table:    newMarkingTable(places, hint),
	}
	for name, i := range n.placeIdx {
		g.PlaceIdx[name] = i
	}
	arena := newMarkingArena(places)

	// add interns m (unless already present) and returns its state index;
	// it fails when a new state would exceed the exploration bound.
	add := func(m Marking) (int, error) {
		k := g.table.key(m, g.States)
		if i, ok := g.table.find(k, m, g.States); ok {
			return i, nil
		}
		if len(g.States) >= maxStates {
			return 0, fmt.Errorf("spn: state space exceeded %d states", maxStates)
		}
		i := len(g.States)
		g.States = append(g.States, arena.intern(m))
		g.table.insert(k, i)
		return i, nil
	}

	var err error
	if g.Initial, err = add(initial); err != nil {
		return nil, err
	}
	// Edges accumulate in one flat arena; rowStart[i] is the offset of
	// state i's first edge. BFS processes states in index order, so each
	// state's edges are contiguous.
	flat := make([]Edge, 0, 4*hint)
	rowStart := make([]int, 1, hint+1)
	scratch := make(Marking, places)
	for head := 0; head < len(g.States); head++ {
		m := g.States[head]
		for ti, t := range n.trans {
			rate, ok := n.enabled(t, m)
			if !ok {
				continue
			}
			fireInto(scratch, t, m)
			to, err := add(scratch)
			if err != nil {
				return nil, err
			}
			flat = append(flat, Edge{To: to, Rate: rate, Transition: ti})
		}
		rowStart = append(rowStart, len(flat))
	}
	g.nEdges, g.edgeCap = len(flat), cap(flat)
	g.Edges = make([][]Edge, len(g.States))
	for i := range g.Edges {
		g.Edges[i] = flat[rowStart[i]:rowStart[i+1]:rowStart[i+1]]
	}
	return g, nil
}

// SizeBytes reports the bytes the graph's arrays hold, from their actual
// capacities: the marking arena (whole chunks of arenaChunkMarkings
// markings), the state table, one slice header per state, and EdgeBytes.
// The net and the place index are not counted.
func (g *Graph) SizeBytes() int64 {
	const word, header = 8, 24
	chunks := (int64(len(g.States)) + arenaChunkMarkings - 1) / arenaChunkMarkings
	size := chunks * arenaChunkMarkings * int64(max(len(g.PlaceIdx), 1)) * word
	size += int64(cap(g.States)) * header
	if g.table != nil {
		size += int64(len(g.table.keys))*word + int64(len(g.table.idxs))*4
	}
	return size + g.EdgeBytes()
}

// EdgeBytes reports the bytes of the edge arena and of the per-state edge
// windows: everything a CloneForRerate clone holds privately.
func (g *Graph) EdgeBytes() int64 {
	const edgeBytes, header = 24, 24 // Edge: To, Rate, Transition
	return int64(g.edgeCap)*edgeBytes + int64(cap(g.Edges))*header
}

// NumStates returns the number of reachable states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumEdges returns the total number of reachability-graph edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// StateIndex returns the index of the state with the given marking, if it
// is reachable. Allocation-free.
func (g *Graph) StateIndex(m Marking) (int, bool) {
	if g.table == nil || len(m) != len(g.Net.placeNames) {
		return 0, false
	}
	return g.table.lookup(m, g.States)
}

// IsAbsorbing reports whether state i has no outgoing edges.
func (g *Graph) IsAbsorbing(i int) bool { return len(g.Edges[i]) == 0 }

// AbsorbingStates returns the sorted indices of absorbing states.
func (g *Graph) AbsorbingStates() []int {
	var out []int
	for i := range g.States {
		if g.IsAbsorbing(i) {
			out = append(out, i)
		}
	}
	return out
}

// Mark returns the token count of the named place in state i.
func (g *Graph) Mark(i int, place string) int {
	pi, ok := g.PlaceIdx[place]
	if !ok {
		panic(fmt.Sprintf("spn: unknown place %q", place))
	}
	return g.States[i][pi]
}

// ExitRate returns the total outgoing rate of state i.
func (g *Graph) ExitRate(i int) float64 {
	s := 0.0
	for _, e := range g.Edges[i] {
		s += e.Rate
	}
	return s
}

// String renders a human-readable summary of the graph (for debugging and
// small models only).
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SPN graph: %d states, initial %d, %d absorbing\n",
		len(g.States), g.Initial, len(g.AbsorbingStates()))
	names := g.Net.PlaceNames()
	limit := len(g.States)
	if limit > 50 {
		limit = 50
	}
	for i := 0; i < limit; i++ {
		var parts []string
		for pi, name := range names {
			if v := g.States[i][pi]; v != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", name, v))
			}
		}
		sort.Strings(parts)
		fmt.Fprintf(&sb, "  s%d {%s}", i, strings.Join(parts, " "))
		for _, e := range g.Edges[i] {
			fmt.Fprintf(&sb, " --%s(%.4g)-->s%d", g.Net.trans[e.Transition].Name, e.Rate, e.To)
		}
		sb.WriteByte('\n')
	}
	if limit < len(g.States) {
		fmt.Fprintf(&sb, "  ... %d more states\n", len(g.States)-limit)
	}
	return sb.String()
}
