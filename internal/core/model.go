package core

import (
	"fmt"
	"math"

	"repro/internal/gdh"
	"repro/internal/obs"
	"repro/internal/shapes"
	"repro/internal/spn"
)

// Place names of the SPN in Figure 1.
const (
	placeTm  = "Tm"  // trusted members
	placeUCm = "UCm" // compromised, undetected members
	placeDCm = "DCm" // compromised (or falsely accused), detected, awaiting eviction
	placeGF  = "GF"  // group failure token (condition C1)
	placeNG  = "NG"  // number of groups in the system
)

// Model is the assembled SPN for one configuration.
type Model struct {
	Config  Config
	Net     *spn.Net
	Initial spn.Marking

	// place indices, cached for the rate function
	tm, ucm, dcm, gf, ng int
	// transition indices in Net.Transitions() order; tRK is -1 in the
	// compact model
	tCP, tDRQ, tIDS, tFA, tRK, tPAR, tMER int

	attacker  shapes.Attacker
	detection shapes.Detection

	// Dense rate-factor tables, read for every live state by the rate
	// function, the full path's cost pass and the rate keys' factor fill.
	// vote holds (Pfn, Pfp) by per-group composition: a frozen
	// table from the process-wide store (votetable.go), shared by every
	// model of equal (Protocol, M, P1, P2) and read without a lock; a
	// composition beyond it is computed, not stored. detect holds D(md)
	// by live count 0..N, NaN marking a slot not filled yet; it depends on
	// TIDS and belongs to this model alone.
	voteKey voteKey
	vote    *voteTable
	detect  []float64
}

// BuildModel constructs the Figure 1 SPN under the given configuration.
//
// Compact model (default): T_IDS and T_FA remove the detected node
// directly (eviction and its rekey complete within one transition), so the
// places are {Tm, UCm, GF, NG}. Extended model (ExplicitEviction): detected
// nodes first move to DCm and leave through T_RK at rate mark(DCm)/Tcm,
// matching the figure literally. Every transition's rate comes from one
// per-state function, Model.rates.
func BuildModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Config:    cfg,
		Net:       spn.New(),
		attacker:  cfg.attacker(),
		detection: cfg.detection(),
		voteKey:   voteKeyOf(cfg),
		detect:    make([]float64, cfg.N+1),
		tRK:       -1,
	}
	m.vote = voteTables.table(m.voteKey, voteExtent(cfg))
	for i := range m.detect {
		m.detect[i] = math.NaN()
	}
	m.tm = m.Net.AddPlace(placeTm)
	m.ucm = m.Net.AddPlace(placeUCm)
	if cfg.ExplicitEviction {
		m.dcm = m.Net.AddPlace(placeDCm)
	} else {
		m.dcm = -1
	}
	m.gf = m.Net.AddPlace(placeGF)
	m.ng = m.Net.AddPlace(placeNG)

	added := 0
	add := func(t *spn.Transition) int {
		m.Net.MustAddTransition(t)
		added++
		return added - 1
	}
	// T_CP: a trusted member becomes compromised.
	m.tCP = add(&spn.Transition{
		Name:    "T_CP",
		Inputs:  []spn.Arc{{Place: m.tm, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.ucm, Weight: 1}},
	})
	// T_DRQ: a compromised, undetected member obtains data using the
	// group key — the C1 security failure.
	m.tDRQ = add(&spn.Transition{
		Name:    "T_DRQ",
		Inputs:  []spn.Arc{{Place: m.ucm, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.gf, Weight: 1}},
	})
	// T_IDS: voting-based IDS detects a compromised member. T_FA: it
	// falsely evicts a trusted member. In the extended model both move
	// the node to DCm.
	var evictOutputs []spn.Arc
	if cfg.ExplicitEviction {
		evictOutputs = []spn.Arc{{Place: m.dcm, Weight: 1}}
	}
	m.tIDS = add(&spn.Transition{
		Name:    "T_IDS",
		Inputs:  []spn.Arc{{Place: m.ucm, Weight: 1}},
		Outputs: evictOutputs,
	})
	m.tFA = add(&spn.Transition{
		Name:    "T_FA",
		Inputs:  []spn.Arc{{Place: m.tm, Weight: 1}},
		Outputs: evictOutputs,
	})
	if cfg.ExplicitEviction {
		// T_RK: the rekeying that completes an eviction.
		m.tRK = add(&spn.Transition{
			Name:   "T_RK",
			Inputs: []spn.Arc{{Place: m.dcm, Weight: 1}},
		})
	}
	// T_PAR / T_MER: group partitioning and merging as a birth-death
	// process with rates calibrated from mobility simulation.
	m.tPAR = add(&spn.Transition{
		Name:    "T_PAR",
		Inputs:  []spn.Arc{{Place: m.ng, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.ng, Weight: 2}},
	})
	m.tMER = add(&spn.Transition{
		Name:    "T_MER",
		Inputs:  []spn.Arc{{Place: m.ng, Weight: 2}},
		Outputs: []spn.Arc{{Place: m.ng, Weight: 1}},
	})
	m.Net.SetRates(m.rates)

	m.Initial = m.initialMarking()
	return m, nil
}

// stateKeys is what a state's rates and cost reward read of its marking:
// the alive test, the token counts, one group's composition (perGroup)
// and the rekeying group's size. The rate-key table (ratekeys.go) is built
// from it, so a patched point reads the same keys the rate function does.
type stateKeys struct {
	live              bool // no failure condition holds
	tm, ucm, dcm, ng  int
	nGood, nBad, size int // one group's composition, when tm+ucm > 0
	rekeySize         int // T_RK's rekeying group size, when dcm > 0
	split             bool
}

func (k *stateKeys) active() int { return k.tm + k.ucm }

// keysOf reads mk's keys into k (in place: the rate function calls it
// once per explored state). A failed state's keys are only live = false.
func (m *Model) keysOf(mk spn.Marking, k *stateKeys) {
	if !m.alive(mk) {
		*k = stateKeys{}
		return
	}
	*k = stateKeys{live: true, tm: mk[m.tm], ucm: mk[m.ucm], ng: mk[m.ng]}
	if k.active() > 0 {
		k.nGood, k.nBad, k.size = m.perGroup(mk)
	}
	if m.dcm >= 0 && mk[m.dcm] > 0 {
		k.dcm = mk[m.dcm]
		k.rekeySize = m.rekeySize(mk)
	}
	// A partition needs at least two live nodes per resulting group.
	k.split = k.ng < m.Config.MaxGroups && k.active() >= 2*(k.ng+1)
}

// role names a transition of the Figure 1 net by what its rate reads.
type role uint8

const (
	roleCP role = iota
	roleDRQ
	roleIDS
	roleFA
	roleRK
	rolePAR
	roleMER
)

// roles maps the model's transition indices to their roles.
func (m *Model) roles() []role {
	out := make([]role, m.Net.NumTransitions())
	out[m.tCP], out[m.tDRQ], out[m.tIDS], out[m.tFA] = roleCP, roleDRQ, roleIDS, roleFA
	out[m.tPAR], out[m.tMER] = rolePAR, roleMER
	if m.tRK >= 0 {
		out[m.tRK] = roleRK
	}
	return out
}

// guard reports whether a transition of role r can have a nonzero rate in
// a state of keys k. It reads the marking and the structural Config
// fields (MaxGroups, through split) only, so a false guard means a rate of
// 0 under every configuration of the family.
func (k *stateKeys) guard(r role) bool {
	if !k.live {
		return false
	}
	switch r {
	case roleCP:
		return k.tm > 0
	case roleIDS, roleFA:
		return k.active() > 0
	case roleRK:
		return k.dcm > 0
	case rolePAR:
		return k.split
	}
	return true
}

// The per-key rate functions: each transition's rate from its factors and
// its integer multiplier, in the one operand order the rate function and
// the keyed re-rate share. T_CP's rate is its attacker factor and T_PAR's
// is PartitionRate.

// drqRate: each compromised member requests data at rate LambdaQ and
// succeeds unless host IDS flags it, hence Section 4's p1*λq*mark(UCm).
func drqRate(p1LambdaQ float64, ucm int) float64 { return p1LambdaQ * float64(ucm) }

// idsRate is T_IDS at mark(UCm)*D(md)*(1-Pfn).
func idsRate(ucm int, d, pfn float64) float64 { return float64(ucm) * d * (1 - pfn) }

// faRate is T_FA at mark(Tm)*D(md)*Pfp.
func faRate(tm int, d, pfp float64) float64 { return float64(tm) * d * pfp }

// rkRate: each detected node leaves after an exponential Tcm delay.
func rkRate(dcm int, tcm float64) float64 { return float64(dcm) / tcm }

// merRate: the merge rate is proportional to the number of extra groups,
// since more fragments find each other faster.
func merRate(mergeRate float64, ng int) float64 { return mergeRate * float64(ng-1) }

// rates is the net's rate function: every transition's rate in mk, with
// the alive test, the group split, D(md) and (Pfn, Pfp) each evaluated
// once for the state. A failed state (C1 or C2) disables everything,
// which makes it absorbing — the paper's construction of MTTSF as mean
// time to absorption. A transition whose input arcs are unsatisfied may
// be left at 0: the enabling scan disables it either way.
func (m *Model) rates(mk spn.Marking, out []float64) {
	clear(out)
	var k stateKeys
	m.keysOf(mk, &k)
	if !k.live {
		return
	}
	cfg := &m.Config
	// T_CP fires at the attacker rate A(mc), mc = (Tm + UCm)/Tm.
	if k.guard(roleCP) {
		out[m.tCP] = m.attackRate(k.tm, k.ucm)
	}
	out[m.tDRQ] = drqRate(cfg.P1*cfg.LambdaQ, k.ucm)
	if k.guard(roleIDS) {
		d := m.detectionRate(k.active())
		pfn, pfp := m.votingProbs(k.nGood, k.nBad)
		out[m.tIDS] = idsRate(k.ucm, d, pfn)
		out[m.tFA] = faRate(k.tm, d, pfp)
	}
	if m.tRK >= 0 && k.guard(roleRK) {
		out[m.tRK] = rkRate(k.dcm, m.rekeyTime(k.rekeySize))
	}
	if k.guard(rolePAR) {
		out[m.tPAR] = cfg.PartitionRate
	}
	out[m.tMER] = merRate(cfg.MergeRate, k.ng)
}

// tableBytes reports the bytes of the model's own rate-factor table. The
// voting table belongs to the process-wide store, which accounts for it.
func (m *Model) tableBytes() int64 {
	return int64(cap(m.detect)) * 8
}

func (m *Model) initialMarking() spn.Marking {
	mk := make(spn.Marking, m.Net.NumPlaces())
	mk[m.tm] = m.Config.N
	mk[m.ng] = 1
	return mk
}

// activeMembers returns Tm + UCm, the live membership.
func (m *Model) activeMembers(mk spn.Marking) int {
	return mk[m.tm] + mk[m.ucm]
}

// alive reports whether no security failure condition holds in mk; a
// failed state is absorbing.
func (m *Model) alive(mk spn.Marking) bool {
	if mk[m.gf] > 0 {
		return false // C1: data leaked
	}
	// C2: more than 1/3 of members compromised-undetected:
	// UCm/(Tm+UCm) > 1/3  <=>  2*UCm > Tm.
	return 2*mk[m.ucm] <= mk[m.tm]
}

// FailureCause labels an absorbing state.
type FailureCause int

const (
	// CauseNone marks non-failure absorption (node depletion).
	CauseNone FailureCause = iota
	// CauseC1 is data leak to a compromised member.
	CauseC1
	// CauseC2 is compromise of more than 1/3 of the membership.
	CauseC2
)

// String implements fmt.Stringer.
func (c FailureCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseC1:
		return "C1-data-leak"
	case CauseC2:
		return "C2-byzantine"
	default:
		return fmt.Sprintf("FailureCause(%d)", int(c))
	}
}

// Classify returns the failure cause of a marking.
func (m *Model) Classify(mk spn.Marking) FailureCause {
	if mk[m.gf] > 0 {
		return CauseC1
	}
	if 2*mk[m.ucm] > mk[m.tm] {
		return CauseC2
	}
	return CauseNone
}

// perGroup splits the system-wide counts into one group's composition,
// following the paper's instruction that the token counts "would be
// adjusted based on the number of groups existing in the system".
func (m *Model) perGroup(mk spn.Marking) (nGood, nBad, size int) {
	g := mk[m.ng]
	if g < 1 {
		g = 1
	}
	nGood = roundDiv(mk[m.tm], g)
	nBad = roundDiv(mk[m.ucm], g)
	// A group containing the evaluation target always holds that node.
	if mk[m.ucm] > 0 && nBad == 0 {
		nBad = 1
	}
	if mk[m.tm] > 0 && nGood == 0 {
		nGood = 1
	}
	return nGood, nBad, nGood + nBad
}

func roundDiv(a, b int) int {
	return (a + b/2) / b
}

// votingProbs evaluates the detection error probabilities for one
// group's composition: Equation 1 for the voting protocol, or the
// cluster-head closed form for the related-work comparator.
func (m *Model) votingProbs(nGood, nBad int) (pfn, pfp float64) {
	if p, ok := m.vote.get(nGood, nBad); ok {
		return p.pfn, p.pfp
	}
	return m.voteKey.probs(nGood, nBad, m.voteKey.params().Probabilities)
}

// attackRate evaluates A(mc) with mc = (Tm + UCm)/Tm.
func (m *Model) attackRate(tm, ucm int) float64 {
	return m.attacker.Rate(shapes.Pressure(tm, ucm))
}

// detectionAt evaluates D(md) with md = Ninit/(Tm + UCm) for a live count
// active = Tm + UCm.
func (m *Model) detectionAt(active int) float64 {
	return m.detection.Rate(shapes.EvictionPressure(m.Config.N, active, 0))
}

// detectionRate is detectionAt memoized on the live count.
func (m *Model) detectionRate(active int) float64 {
	if r := m.detect[active]; !math.IsNaN(r) {
		return r
	}
	r := m.detectionAt(active)
	m.detect[active] = r
	return r
}

// rekeySize returns the per-group membership of a marking that rekeys. The
// rekeying group includes detected-but-not-yet-evicted nodes (they hold
// the old key until the rekey completes) and is floored at 2 so the rate
// of T_RK stays finite in every reachable state.
func (m *Model) rekeySize(mk spn.Marking) int {
	members := mk[m.tm] + mk[m.ucm]
	if m.dcm >= 0 {
		members += mk[m.dcm]
	}
	g := mk[m.ng]
	if g < 1 {
		g = 1
	}
	return max(roundDiv(members, g), 2)
}

// rekeyTime returns Tcm for a rekeying group of the given size.
func (m *Model) rekeyTime(size int) float64 {
	return gdh.RekeyTime(size, m.Config.GDHElementBits, m.Config.MeanHops, m.Config.BandwidthBps)
}

// Explore generates the reachability graph of the model, pre-sizing the
// exploration from the token-count bounds of the Figure 1 net: Tm ≤ N,
// UCm ≲ Tm/2 (the C2 condition), NG ≤ MaxGroups, and — in the extended
// model — a DCm axis that multiplies the space by roughly N/2. The rate
// function fills the detection table as the graph is explored.
func (m *Model) Explore() (*spn.Graph, error) {
	sp := obs.StartStage(obs.StageExplore)
	defer sp.End()
	cfg := m.Config
	hint := cfg.MaxGroups * (cfg.N*cfg.N/3 + 4*cfg.N)
	if cfg.ExplicitEviction {
		hint *= cfg.N / 2
	}
	maxStates := cfg.EffectiveMaxStates()
	if hint > maxStates {
		hint = maxStates
	}
	return m.Net.Explore(m.Initial, spn.ExploreOpts{MaxStates: maxStates, ExpectedStates: hint})
}
