package core

import (
	"fmt"

	"repro/internal/gdh"
	"repro/internal/obs"
	"repro/internal/shapes"
	"repro/internal/spn"
	"repro/internal/voting"
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

	// place indices, cached for rate closures
	tm, ucm, dcm, gf, ng int

	// Rate-evaluation memos. The voting error probabilities depend only on
	// the per-group composition (nGood, nBad) and the detection rate only
	// on the live member count, while exploration evaluates them for every
	// enabled transition of every state — most of which collapse onto few
	// distinct keys. Both are pure functions of their key, so memoizing
	// them is exact. The maps are unsynchronized: they are written during
	// the single-threaded reachability exploration and by costRewards
	// under Prepared's resultOnce guard; any new post-exploration caller
	// of votingProbs/detectionRate must serialize the same way.
	//
	// voteMemo's values also depend on (Protocol, M, P1, P2), never on
	// TIDS, so a PreparedDelta session hands one table down its chain of
	// rebuilt models while those four are unchanged. The models sharing a
	// table are used one at a time on the session's goroutine; a table is
	// never shared with a model outside its session. detectMemo depends
	// on TIDS through the detection rate and is never shared.
	voteMemo   map[uint64][2]float64
	detectMemo map[int]float64
}

// BuildModel constructs the Figure 1 SPN under the given configuration.
//
// Compact model (default): T_IDS and T_FA remove the detected node
// directly (eviction and its rekey complete within one transition), so the
// places are {Tm, UCm, GF, NG}. Extended model (ExplicitEviction): detected
// nodes first move to DCm and leave through T_RK at rate mark(DCm)/Tcm,
// matching the figure literally.
func BuildModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Config:     cfg,
		Net:        spn.New(),
		voteMemo:   make(map[uint64][2]float64),
		detectMemo: make(map[int]float64),
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

	alive := m.aliveGuard()
	attacker := cfg.attacker()
	detection := cfg.detection()
	vote := voting.Params{M: cfg.M, P1: cfg.P1, P2: cfg.P2}

	// T_CP: a trusted member becomes compromised at the attacker rate
	// A(mc) with mc = (Tm + UCm)/Tm.
	m.Net.MustAddTransition(&spn.Transition{
		Name:    "T_CP",
		Inputs:  []spn.Arc{{Place: m.tm, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.ucm, Weight: 1}},
		Guard:   alive,
		Rate: func(mk spn.Marking) float64 {
			return attacker.Rate(shapes.Pressure(mk[m.tm], mk[m.ucm]))
		},
	})

	// T_DRQ: a compromised, undetected member obtains data using the
	// group key — the C1 security failure. Each such member requests data
	// at rate LambdaQ and succeeds unless host IDS flags it, hence the
	// p1 factor (Section 4's rate p1*λq*mark(UCm)).
	m.Net.MustAddTransition(&spn.Transition{
		Name:    "T_DRQ",
		Inputs:  []spn.Arc{{Place: m.ucm, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.gf, Weight: 1}},
		Guard:   alive,
		Rate: func(mk spn.Marking) float64 {
			return cfg.P1 * cfg.LambdaQ * float64(mk[m.ucm])
		},
	})

	// T_IDS: voting-based IDS detects a compromised member; rate
	// mark(UCm) * D(md) * (1 - Pfn).
	idsOutputs := []spn.Arc(nil)
	if cfg.ExplicitEviction {
		idsOutputs = []spn.Arc{{Place: m.dcm, Weight: 1}}
	}
	m.Net.MustAddTransition(&spn.Transition{
		Name:    "T_IDS",
		Inputs:  []spn.Arc{{Place: m.ucm, Weight: 1}},
		Outputs: idsOutputs,
		Guard:   alive,
		Rate: func(mk spn.Marking) float64 {
			pfn, _ := m.votingProbs(vote, mk)
			return float64(mk[m.ucm]) * m.detectionRate(detection, mk) * (1 - pfn)
		},
	})

	// T_FA: voting-based IDS falsely evicts a trusted member; rate
	// mark(Tm) * D(md) * Pfp.
	faOutputs := []spn.Arc(nil)
	if cfg.ExplicitEviction {
		faOutputs = []spn.Arc{{Place: m.dcm, Weight: 1}}
	}
	m.Net.MustAddTransition(&spn.Transition{
		Name:    "T_FA",
		Inputs:  []spn.Arc{{Place: m.tm, Weight: 1}},
		Outputs: faOutputs,
		Guard:   alive,
		Rate: func(mk spn.Marking) float64 {
			_, pfp := m.votingProbs(vote, mk)
			return float64(mk[m.tm]) * m.detectionRate(detection, mk) * pfp
		},
	})

	if cfg.ExplicitEviction {
		// T_RK: the rekeying that completes an eviction. Each detected
		// node leaves after an exponential Tcm delay.
		m.Net.MustAddTransition(&spn.Transition{
			Name:   "T_RK",
			Inputs: []spn.Arc{{Place: m.dcm, Weight: 1}},
			Guard:  alive,
			Rate: func(mk spn.Marking) float64 {
				return float64(mk[m.dcm]) / m.rekeyTime(mk)
			},
		})
	}

	// T_PAR / T_MER: group partitioning and merging as a birth-death
	// process with rates calibrated from mobility simulation. Partitions
	// require at least two nodes per resulting group.
	m.Net.MustAddTransition(&spn.Transition{
		Name:    "T_PAR",
		Inputs:  []spn.Arc{{Place: m.ng, Weight: 1}},
		Outputs: []spn.Arc{{Place: m.ng, Weight: 2}},
		Guard: func(mk spn.Marking) bool {
			if !alive(mk) || mk[m.ng] >= cfg.MaxGroups {
				return false
			}
			return m.activeMembers(mk) >= 2*(mk[m.ng]+1)
		},
		Rate: func(mk spn.Marking) float64 { return cfg.PartitionRate },
	})
	m.Net.MustAddTransition(&spn.Transition{
		Name:   "T_MER",
		Inputs: []spn.Arc{{Place: m.ng, Weight: 2}},
		Outputs: []spn.Arc{
			{Place: m.ng, Weight: 1},
		},
		Guard: alive,
		Rate: func(mk spn.Marking) float64 {
			// Death rate proportional to the number of extra groups:
			// more fragments find each other faster.
			return cfg.MergeRate * float64(mk[m.ng]-1)
		},
	})

	m.Initial = m.initialMarking()
	return m, nil
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

// aliveGuard returns the enabling predicate shared by every transition:
// false once either security failure condition holds, which freezes the
// net and makes the state absorbing (the paper's construction of MTTSF as
// mean time to absorption).
func (m *Model) aliveGuard() spn.GuardFunc {
	return func(mk spn.Marking) bool {
		if mk[m.gf] > 0 {
			return false // C1: data leaked
		}
		// C2: more than 1/3 of members compromised-undetected:
		// UCm/(Tm+UCm) > 1/3  <=>  2*UCm > Tm.
		if 2*mk[m.ucm] > mk[m.tm] {
			return false
		}
		return true
	}
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

// votingProbs evaluates the detection error probabilities for the group
// composition of a marking: Equation 1 for the voting protocol, or the
// cluster-head closed form for the related-work comparator.
func (m *Model) votingProbs(vote voting.Params, mk spn.Marking) (pfn, pfp float64) {
	nGood, nBad, _ := m.perGroup(mk)
	key := uint64(uint32(nGood))<<32 | uint64(uint32(nBad))
	if p, ok := m.voteMemo[key]; ok {
		return p[0], p[1]
	}
	if m.Config.Protocol == ProtocolClusterHead {
		pfn = voting.ClusterHeadFalseNegative(nGood, nBad, vote.P1)
		pfp = voting.ClusterHeadFalsePositive(nGood, nBad, vote.P2)
	} else {
		pfn, pfp = vote.Probabilities(nGood, nBad)
	}
	m.voteMemo[key] = [2]float64{pfn, pfp}
	return pfn, pfp
}

// detectionRate evaluates D(md) with md = Ninit/(Tm + UCm), memoized on the
// live member count Tm + UCm.
func (m *Model) detectionRate(d shapes.Detection, mk spn.Marking) float64 {
	active := mk[m.tm] + mk[m.ucm]
	if r, ok := m.detectMemo[active]; ok {
		return r
	}
	r := d.Rate(shapes.EvictionPressure(m.Config.N, mk[m.tm], mk[m.ucm]))
	m.detectMemo[active] = r
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
// UCm ≲ Tm/2 (the C2 guard), NG ≤ MaxGroups, and — in the extended model —
// a DCm axis that multiplies the space by roughly N/2.
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
