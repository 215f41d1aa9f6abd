package core

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/spn"
)

// Rate keys. Every rate of the Figure 1 net is a product of a few factors
// and an integer multiplier: A(mc) keyed on (Tm, UCm), D(md) keyed on the
// live count Tm + UCm, (Pfn, Pfp) keyed on one group's composition, Tcm
// keyed on the rekeying group's size, and a few scalars of the
// configuration. A structural family's edges therefore read far fewer
// distinct factor values than they have edges (at N = 60, about 10k edges
// read a few hundred of each), and which factor slot an edge reads depends
// on its marking alone. So the family's anchor builds one table, once,
// that names each edge's slots and multiplier, and every session cloned
// from the anchor shares it read-only. A patched point fills the small
// factor tables for its configuration and gathers every edge rate as the
// same product, in the same operand order, that Model.rates computes: it
// reads no marking and calls no rate function per state.
//
// The table also carries, per transient live state, the slots of its cost
// reward, and per absorbing state its failure cause, so the cost pass and
// the C1/C2/depleted split of a patched point read no marking either.
//
// The structural check. A re-rate keeps the graph exactly when it decides
// what exploration would decide in every state: an edge's transition stays
// enabled, and a transition whose input arcs hold but which had no edge
// stays disabled. Enabling is "input arcs hold and rate > 0", the arcs are
// fixed by the family, and a rate is a function of its key, so the check
// runs per key: every edge's rate must stay positive and finite, and the
// key of every arc-enabled pair whose rate was 0 (idle) must stay not
// positive and finite. A pair whose guard (stateKeys.guard) is false
// reads only the marking and the structural fields, so its rate is 0
// under every configuration of the family and needs no check. This
// decides exactly what the per-state replay spn.Graph.Rerate decides,
// which the tests keep as the oracle.

// keyPair is a two-part factor key.
type keyPair struct{ x, y int32 }

// rateKey is what one rate reads: the slots a and b of its factor tables
// (which tables, its transition's role says) and its integer multiplier.
type rateKey struct{ mult, a, b int32 }

// idleKey is the key of an arc-enabled pair whose rate was 0.
type idleKey struct {
	role role
	key  rateKey
}

// liveState is a transient state with live members: its index, its token
// counts, its group count and the slots its cost reward reads.
type liveState struct {
	state, tm, ucm, groups int32
	life, comp, slot       int32
}

// rateKeys is a structural family's rate-key table, built once from the
// anchor and read-only after.
type rateKeys struct {
	roles []role // by transition index

	// The factor keys, one per slot, in first-seen state order.
	pressures []keyPair // (Tm, UCm) of A(mc)
	lives     []int32   // Tm + UCm of D(md)
	comps     []keyPair // (nGood, nBad) of (Pfn, Pfp)
	sizes     []int32   // rekeying group size of Tcm
	slots     []keyPair // (group size, groups) of a cost slot

	edges  []rateKey   // per edge, in the graph's edge order
	idle   []idleKey   // distinct keys of arc-enabled pairs of rate 0
	live   []liveState // in state order
	causes []uint8     // FailureCause per absorbing state, in state order
}

// newRateKeys builds the family table from the anchor's model, graph and
// chain. It only reads them.
func newRateKeys(m *Model, g *spn.Graph, c *ctmc.Chain) (*rateKeys, error) {
	if g.NumStates() > math.MaxInt32 || g.NumEdges() > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d states, %d edges exceed the rate-key table", g.NumStates(), g.NumEdges())
	}
	rk := &rateKeys{roles: m.roles(), edges: make([]rateKey, 0, g.NumEdges())}
	pressures := make(map[keyPair]int32)
	comps := make(map[keyPair]int32)
	slots := make(map[keyPair]int32)
	sizes := make(map[int32]int32)
	lives := make(map[int32]int32)
	keyOf := func(r role, k *stateKeys) rateKey {
		switch r {
		case roleCP:
			return rateKey{a: slotOf(pressures, &rk.pressures, keyPair{int32(k.tm), int32(k.ucm)})}
		case roleDRQ:
			return rateKey{mult: int32(k.ucm)}
		case roleIDS, roleFA:
			key := rateKey{
				mult: int32(k.ucm),
				a:    slotOf(lives, &rk.lives, int32(k.active())),
				b:    slotOf(comps, &rk.comps, keyPair{int32(k.nGood), int32(k.nBad)}),
			}
			if r == roleFA {
				key.mult = int32(k.tm)
			}
			return key
		case roleRK:
			return rateKey{mult: int32(k.dcm), a: slotOf(sizes, &rk.sizes, int32(k.rekeySize))}
		case roleMER:
			return rateKey{mult: int32(k.ng)}
		}
		return rateKey{} // rolePAR reads PartitionRate alone
	}

	seen := make(map[idleKey]bool)
	var idle []int
	var k stateKeys
	for si, mk := range g.States {
		m.keysOf(mk, &k)
		for _, e := range g.Edges[si] {
			r := rk.roles[e.Transition]
			if !k.guard(r) {
				return nil, fmt.Errorf("core: state %d has an edge of guarded-off transition %d", si, e.Transition)
			}
			rk.edges = append(rk.edges, keyOf(r, &k))
		}
		idle = g.IdleTransitions(si, idle[:0])
		for _, ti := range idle {
			if r := rk.roles[ti]; k.guard(r) {
				if ik := (idleKey{r, keyOf(r, &k)}); !seen[ik] {
					seen[ik] = true
					rk.idle = append(rk.idle, ik)
				}
			}
		}
		switch {
		case c.IsAbsorbing(si):
			rk.causes = append(rk.causes, uint8(m.Classify(mk)))
		case k.live && k.active() > 0:
			groups := max(k.ng, 1)
			rk.live = append(rk.live, liveState{
				state: int32(si), tm: int32(k.tm), ucm: int32(k.ucm), groups: int32(groups),
				life: slotOf(lives, &rk.lives, int32(k.active())),
				comp: slotOf(comps, &rk.comps, keyPair{int32(k.nGood), int32(k.nBad)}),
				slot: slotOf(slots, &rk.slots, keyPair{int32(k.size), int32(groups)}),
			})
		}
	}
	return rk, nil
}

// slotOf returns key k's slot, appending k to list (indexed by index) when
// it is new.
func slotOf[K comparable](index map[K]int32, list *[]K, k K) int32 {
	s, ok := index[k]
	if !ok {
		s = int32(len(*list))
		index[k] = s
		*list = append(*list, k)
	}
	return s
}

func (rk *rateKeys) sizeBytes() int64 {
	const i32 = 4 // every key field is an int32; roles and causes are bytes
	words := 2*cap(rk.pressures) + cap(rk.lives) + 2*cap(rk.comps) + cap(rk.sizes) + 2*cap(rk.slots) +
		3*cap(rk.edges) + 4*cap(rk.idle) + 7*cap(rk.live)
	return int64(words)*i32 + int64(cap(rk.roles)+cap(rk.causes))
}

// rateFactors is one point's factor tables, one value per slot of the
// family's rate keys. A session refills its own for every point.
type rateFactors struct {
	keys                         *rateKeys
	attack, detect, tcm          []float64
	vote                         []votePair
	cost                         []cost.Slot
	p1LambdaQ, partition, merger float64
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill computes every factor of m's configuration that the keys read.
func (f *rateFactors) fill(m *Model) {
	rk, cfg := f.keys, &m.Config
	f.attack = resize(f.attack, len(rk.pressures))
	for i, p := range rk.pressures {
		f.attack[i] = m.attackRate(int(p.x), int(p.y))
	}
	f.detect = resize(f.detect, len(rk.lives))
	for i, active := range rk.lives {
		f.detect[i] = m.detectionAt(int(active))
	}
	f.vote = resize(f.vote, len(rk.comps))
	for i, c := range rk.comps {
		f.vote[i].pfn, f.vote[i].pfp = m.votingProbs(int(c.x), int(c.y))
	}
	f.tcm = resize(f.tcm, len(rk.sizes))
	for i, size := range rk.sizes {
		f.tcm[i] = m.rekeyTime(int(size))
	}
	params := cfg.costParams()
	clusterHead := cfg.Protocol == ProtocolClusterHead
	f.cost = resize(f.cost, len(rk.slots))
	for i, s := range rk.slots {
		f.cost[i] = params.Slot(int(s.x), int(s.y), clusterHead, cfg.PartitionRate, cfg.MergeRate)
	}
	f.p1LambdaQ = cfg.P1 * cfg.LambdaQ
	f.partition, f.merger = cfg.PartitionRate, cfg.MergeRate
}

// rate is the rate of key k of a transition of role r: the per-key
// function Model.rates calls, on the filled factors.
func (f *rateFactors) rate(r role, k rateKey) float64 {
	switch r {
	case roleCP:
		return f.attack[k.a]
	case roleDRQ:
		return drqRate(f.p1LambdaQ, int(k.mult))
	case roleIDS:
		return idsRate(int(k.mult), f.detect[k.a], f.vote[k.b].pfn)
	case roleFA:
		return faRate(int(k.mult), f.detect[k.a], f.vote[k.b].pfp)
	case roleRK:
		return rkRate(int(k.mult), f.tcm[k.a])
	case rolePAR:
		return f.partition
	default:
		return merRate(f.merger, int(k.mult))
	}
}

// rerate writes every edge rate of g, a graph of the keys' family, under
// the filled factors, and checks the structure per key (see the top of
// this file): an edge whose rate is no longer positive and finite, or an
// idle key whose rate became positive or non-finite, returns an error
// wrapping spn.ErrStructureChanged, and leaves g's rates partly updated.
// It allocates nothing.
func (f *rateFactors) rerate(g *spn.Graph) error {
	rk := f.keys
	for _, z := range rk.idle {
		if r := f.rate(z.role, z.key); r > 0 || r-r != 0 {
			return fmt.Errorf("%w (a transition of role %d newly enabled at rate %v)", spn.ErrStructureChanged, z.role, r)
		}
	}
	k := 0
	for si, row := range g.Edges {
		for j := range row {
			e := &row[j]
			r := f.rate(rk.roles[e.Transition], rk.edges[k])
			if !(r > 0) || r > math.MaxFloat64 {
				return fmt.Errorf("%w (state %d, transition %d re-rated to %v)", spn.ErrStructureChanged, si, e.Transition, r)
			}
			e.Rate = r
			k++
		}
	}
	return nil
}

// sojournCost is Model.sojournCost over the keys: Σ_i y_i · cost(i) over
// the transient live states, in state order. It allocates nothing.
func (f *rateFactors) sojournCost(sojourn linalg.Vector) cost.Breakdown {
	var acc cost.Breakdown
	for i := range f.keys.live {
		s := &f.keys.live[i]
		y := sojourn[s.state]
		if y == 0 {
			continue
		}
		addCost(&acc, y, &f.cost[s.slot], int(s.tm), int(s.ucm), int(s.groups), f.detect[s.life], f.vote[s.comp])
	}
	return acc
}

func (f *rateFactors) sizeBytes() int64 {
	const word, pair = 8, 16
	slot := int64(unsafe.Sizeof(cost.Slot{}))
	return int64(cap(f.attack)+cap(f.detect)+cap(f.tcm))*word + int64(cap(f.vote))*pair + int64(cap(f.cost))*slot
}
