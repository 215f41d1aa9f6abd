package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/shapes"
	"repro/internal/spn"
	"repro/internal/voting"
)

// The reference rates: the Figure 1 formulas written as one guard and one
// rate closure per transition, with their own memo maps, exactly as the
// model evaluated them before the per-state rate function. The oracle
// tests drive these, never Model.rates, so the per-state function is
// checked against an independent spelling of the same formulas — bit for
// bit, because both evaluate each product in the same operand order.

// refTransition is one transition's reference guard and rate.
type refTransition struct {
	name  string
	guard func(spn.Marking) bool // nil means enabled whenever arcs allow
	rate  func(spn.Marking) float64
}

// refRates returns m's transitions as reference closures, in the order of
// m.Net.Transitions(). It reads m's place indices and config only.
func refRates(m *Model) []refTransition {
	cfg := m.Config
	attacker := cfg.attacker()
	detection := cfg.detection()
	vote := voting.Params{M: cfg.M, P1: cfg.P1, P2: cfg.P2}
	voteMemo := make(map[uint64][2]float64)
	detectMemo := make(map[int]float64)

	alive := func(mk spn.Marking) bool {
		if mk[m.gf] > 0 {
			return false
		}
		return !(2*mk[m.ucm] > mk[m.tm])
	}
	votingProbs := func(mk spn.Marking) (float64, float64) {
		nGood, nBad, _ := m.perGroup(mk)
		key := uint64(uint32(nGood))<<32 | uint64(uint32(nBad))
		if p, ok := voteMemo[key]; ok {
			return p[0], p[1]
		}
		var pfn, pfp float64
		if cfg.Protocol == ProtocolClusterHead {
			pfn = voting.ClusterHeadFalseNegative(nGood, nBad, vote.P1)
			pfp = voting.ClusterHeadFalsePositive(nGood, nBad, vote.P2)
		} else {
			pfn, pfp = vote.Probabilities(nGood, nBad)
		}
		voteMemo[key] = [2]float64{pfn, pfp}
		return pfn, pfp
	}
	detectionRate := func(mk spn.Marking) float64 {
		active := mk[m.tm] + mk[m.ucm]
		if r, ok := detectMemo[active]; ok {
			return r
		}
		r := detection.Rate(shapes.EvictionPressure(cfg.N, mk[m.tm], mk[m.ucm]))
		detectMemo[active] = r
		return r
	}

	refs := []refTransition{
		{name: "T_CP", guard: alive, rate: func(mk spn.Marking) float64 {
			return attacker.Rate(shapes.Pressure(mk[m.tm], mk[m.ucm]))
		}},
		{name: "T_DRQ", guard: alive, rate: func(mk spn.Marking) float64 {
			return cfg.P1 * cfg.LambdaQ * float64(mk[m.ucm])
		}},
		{name: "T_IDS", guard: alive, rate: func(mk spn.Marking) float64 {
			pfn, _ := votingProbs(mk)
			return float64(mk[m.ucm]) * detectionRate(mk) * (1 - pfn)
		}},
		{name: "T_FA", guard: alive, rate: func(mk spn.Marking) float64 {
			_, pfp := votingProbs(mk)
			return float64(mk[m.tm]) * detectionRate(mk) * pfp
		}},
	}
	if cfg.ExplicitEviction {
		refs = append(refs, refTransition{name: "T_RK", guard: alive, rate: func(mk spn.Marking) float64 {
			return float64(mk[m.dcm]) / m.rekeyTime(m.rekeySize(mk))
		}})
	}
	refs = append(refs,
		refTransition{name: "T_PAR",
			guard: func(mk spn.Marking) bool {
				if !alive(mk) || mk[m.ng] >= cfg.MaxGroups {
					return false
				}
				return mk[m.tm]+mk[m.ucm] >= 2*(mk[m.ng]+1)
			},
			rate: func(spn.Marking) float64 { return cfg.PartitionRate },
		},
		refTransition{name: "T_MER", guard: alive, rate: func(mk spn.Marking) float64 {
			return cfg.MergeRate * float64(mk[m.ng]-1)
		}},
	)
	return refs
}

// refEnabled reports whether transition t (arcs from the net, guard and
// rate from the reference) fires in mk, and at what rate.
func refEnabled(t *spn.Transition, ref refTransition, mk spn.Marking) (float64, bool) {
	for _, a := range t.Inputs {
		if mk[a.Place] < a.Weight {
			return 0, false
		}
	}
	if ref.guard != nil && !ref.guard(mk) {
		return 0, false
	}
	r := ref.rate(mk)
	return r, r > 0
}

// assertEdgesMatchRef checks every state of g against the reference: the
// enabled-transition sequence is the graph's edge sequence, and every
// edge's Rate is bitwise equal to the reference rate.
func assertEdgesMatchRef(t *testing.T, g *spn.Graph, m *Model) {
	t.Helper()
	trans := m.Net.Transitions()
	refs := refRates(m)
	if len(refs) != len(trans) {
		t.Fatalf("reference has %d transitions, net %d", len(refs), len(trans))
	}
	for i, tr := range trans {
		if refs[i].name != tr.Name {
			t.Fatalf("reference transition %d is %s, net's is %s", i, refs[i].name, tr.Name)
		}
	}
	edges := 0
	for si, mk := range g.States {
		k := 0
		for ti, tr := range trans {
			rate, ok := refEnabled(tr, refs[ti], mk)
			if !ok {
				continue
			}
			row := g.Edges[si]
			if k >= len(row) || row[k].Transition != ti {
				t.Fatalf("state %d {%s}: reference enables %s, graph does not", si, mk.Key(), tr.Name)
			}
			if math.Float64bits(row[k].Rate) != math.Float64bits(rate) {
				t.Fatalf("state %d {%s} %s: rate %.17g, reference %.17g", si, mk.Key(), tr.Name, row[k].Rate, rate)
			}
			k++
		}
		if k != len(g.Edges[si]) {
			t.Fatalf("state %d {%s}: graph has %d edges, reference %d", si, mk.Key(), len(g.Edges[si]), k)
		}
		edges += k
	}
	if edges == 0 {
		t.Fatal("no edges compared")
	}
}

// refVariant is one named model of refExploreGrid.
type refVariant struct {
	name string
	cfg  Config
}

// refExploreGrid is TestExploreMatchesReference's grid of the paper's
// models: sizes, group caps, detection shapes, both eviction models, and
// the cluster-head protocol (the other votingProbs branch).
func refExploreGrid() []refVariant {
	var grid []refVariant
	for _, n := range []int{6, 11, 16} {
		for _, mg := range []int{1, 3} {
			for _, det := range []shapes.Kind{shapes.Linear, shapes.Polynomial} {
				for _, explicit := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.N = n
					cfg.MaxGroups = mg
					cfg.Detection = det
					cfg.ExplicitEviction = explicit
					grid = append(grid, refVariant{
						name: fmt.Sprintf("N%d_g%d_%v_ev%v", n, mg, det, explicit),
						cfg:  cfg,
					})
				}
			}
		}
	}
	ch := DefaultConfig()
	ch.N = 11
	ch.Protocol = ProtocolClusterHead
	return append(grid, refVariant{name: "clusterhead_N11", cfg: ch})
}

// TestRatesMatchReferenceAfterRerate pins the re-rate half of the oracle:
// one session per grid model walks rate-only deltas of TIDS, LambdaC, M
// and P1 — reading the donor's voting key, new keys and keys read before
// — and after every Rerate each edge's rate is bitwise the reference
// closure's under the new configuration.
func TestRatesMatchReferenceAfterRerate(t *testing.T) {
	for _, v := range refExploreGrid() {
		t.Run(v.name, func(t *testing.T) {
			donor, err := Prepare(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := NewPreparedDelta(donor)
			if err != nil {
				t.Fatal(err)
			}
			tids, lambdaC, m, p1 := v.cfg, v.cfg, v.cfg, v.cfg
			tids.TIDS *= 1.7
			lambdaC.LambdaC *= 0.6
			m.M = 7
			mTIDS := m
			mTIDS.TIDS *= 0.4
			p1.P1 = 0.05
			for _, d := range []struct {
				name string
				cfg  Config
			}{{"TIDS", tids}, {"LambdaC", lambdaC}, {"M", m}, {"M+TIDS", mTIDS}, {"P1", p1}} {
				p, err := pd.Prepared(d.cfg)
				if err != nil {
					t.Fatalf("%s delta: %v", d.name, err)
				}
				ref, err := BuildModel(d.cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertEdgesMatchRef(t, p.Graph, ref)
			}
		})
	}
}
