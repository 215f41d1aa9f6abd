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
	// function and by every later pass over the graph (Rerate, the cost
	// pass). vote holds (Pfn, Pfp) by per-group composition: a frozen
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

// rates is the net's rate function: every transition's rate in mk, with
// the alive test, the group split, D(md) and (Pfn, Pfp) each evaluated
// once for the state. A failed state (C1 or C2) disables everything,
// which makes it absorbing — the paper's construction of MTTSF as mean
// time to absorption. A transition whose input arcs are unsatisfied may
// be left at 0: the enabling scan disables it either way.
func (m *Model) rates(mk spn.Marking, out []float64) {
	clear(out)
	if !m.alive(mk) {
		return
	}
	cfg := &m.Config
	tm, ucm := mk[m.tm], mk[m.ucm]
	active := tm + ucm
	// T_CP fires at the attacker rate A(mc), mc = (Tm + UCm)/Tm.
	if tm > 0 {
		out[m.tCP] = m.attacker.Rate(shapes.Pressure(tm, ucm))
	}
	// T_DRQ: each compromised member requests data at rate LambdaQ and
	// succeeds unless host IDS flags it, hence Section 4's
	// p1*λq*mark(UCm).
	out[m.tDRQ] = cfg.P1 * cfg.LambdaQ * float64(ucm)
	if active > 0 {
		// T_IDS at mark(UCm)*D(md)*(1-Pfn), T_FA at mark(Tm)*D(md)*Pfp.
		nGood, nBad, _ := m.perGroup(mk)
		d := m.detectionRate(tm, ucm)
		pfn, pfp := m.votingProbs(nGood, nBad)
		out[m.tIDS] = float64(ucm) * d * (1 - pfn)
		out[m.tFA] = float64(tm) * d * pfp
	}
	// T_RK: each detected node leaves after an exponential Tcm delay.
	if m.tRK >= 0 && mk[m.dcm] > 0 {
		out[m.tRK] = float64(mk[m.dcm]) / m.rekeyTime(mk)
	}
	// A partition needs at least two live nodes per resulting group; the
	// merge rate is proportional to the number of extra groups, since
	// more fragments find each other faster.
	ng := mk[m.ng]
	if ng < cfg.MaxGroups && active >= 2*(ng+1) {
		out[m.tPAR] = cfg.PartitionRate
	}
	out[m.tMER] = cfg.MergeRate * float64(ng-1)
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

// detectionRate evaluates D(md) with md = Ninit/(Tm + UCm), memoized on the
// live member count Tm + UCm.
func (m *Model) detectionRate(tm, ucm int) float64 {
	active := tm + ucm
	if r := m.detect[active]; !math.IsNaN(r) {
		return r
	}
	r := m.detection.Rate(shapes.EvictionPressure(m.Config.N, tm, ucm))
	m.detect[active] = r
	return r
}

// rekeyTime returns Tcm for the per-group membership of a marking. The
// rekeying group includes detected-but-not-yet-evicted nodes (they hold
// the old key until the rekey completes) and is floored at 2 so the rate
// of T_RK stays finite in every reachable state.
func (m *Model) rekeyTime(mk spn.Marking) float64 {
	members := mk[m.tm] + mk[m.ucm]
	if m.dcm >= 0 {
		members += mk[m.dcm]
	}
	g := mk[m.ng]
	if g < 1 {
		g = 1
	}
	size := roundDiv(members, g)
	if size < 2 {
		size = 2
	}
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
