package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/spn"
)

// Result is the full output of one model evaluation.
type Result struct {
	Config Config

	// MTTSF is the mean time to security failure in seconds (expected
	// accumulated time until absorption of the SPN's CTMC).
	MTTSF float64

	// Ctotal is the communication traffic cost metric in hop·bits/s: the
	// cost accumulated until absorption divided by MTTSF (Section 4.2).
	Ctotal float64

	// CostBreakdown decomposes Ctotal into the paper's six components,
	// each time-averaged the same way.
	CostBreakdown cost.Breakdown

	// ProbC1 and ProbC2 split the absorption probability between the two
	// security failure conditions; ProbDepleted is the (tiny) probability
	// the group empties without a security failure.
	ProbC1, ProbC2, ProbDepleted float64

	// States is the size of the reachability graph, Transient the number
	// of non-absorbing states.
	States, Transient int

	// Utilization is Ctotal divided by the wireless bandwidth: the
	// fraction of channel capacity the protocol stack consumes, which
	// bounds the per-packet delay (the paper's timeliness requirement).
	Utilization float64

	// Power is the first-order radio energy draw implied by Ctotal (an
	// extension answering the paper's related-work critique that energy
	// consumption went unaddressed).
	Power cost.EnergyReport
	// MissionEnergyJ is Power integrated over the expected mission
	// lifetime (joules).
	MissionEnergyJ float64

	// Sensitivities, when present, are forward-sensitivity gradients of
	// MTTSF with respect to the continuous model parameters (see
	// Prepared.ForwardSensitivities). Standard evaluation paths leave it
	// empty; the gradient-guided searches and the sensitivity bench
	// workload attach it. Adding this field changes the snapshot schema
	// fingerprint, so pre-existing result-cache snapshots are rejected as
	// stale — by design, never silently reused.
	Sensitivities []ParamSensitivity `json:",omitempty"`
}

// Analyze builds the SPN for cfg, solves the underlying CTMC exactly once,
// and returns MTTSF, Ĉtotal, and the failure-mode split — all derived from
// the same sojourn-time solution.
func Analyze(cfg Config) (*Result, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.Analyze()
}

// analyze derives the full Result from the Prepared state's single solve:
// MTTSF is the sojourn sum, the cost metrics are sojourn-weighted reward
// dot products, and the failure split comes from the same vector via the
// absorption identity — one transient linear solve total.
func (p *Prepared) analyze() (*Result, error) {
	model, graph, chain := p.Model, p.Graph, p.Chain
	cfg := model.Config
	res := &Result{
		Config:    cfg,
		States:    chain.NumStates(),
		Transient: chain.NumTransient(),
	}

	sol, err := p.Solution()
	if err != nil {
		return nil, fmt.Errorf("core: solving sojourn times: %w", err)
	}
	sojourn := sol.SojournTimes()
	res.MTTSF = sojourn.Sum()
	if res.MTTSF <= 0 {
		return nil, fmt.Errorf("core: non-positive MTTSF %v", res.MTTSF)
	}

	// Sojourn-weighted cost rewards, then time-average over the mission.
	// A patched point reads its costs and causes from the family's rate
	// keys; a full prepare from the markings.
	var acc cost.Breakdown
	var causes []uint8
	if f := p.patched; f != nil {
		acc, causes = f.sojournCost(sojourn), f.keys.causes
	} else {
		acc, causes = model.sojournCost(graph, sojourn), model.absorbingCauses(graph, chain)
	}
	res.CostBreakdown = cost.Breakdown{
		GC:     acc.GC / res.MTTSF,
		Status: acc.Status / res.MTTSF,
		Rekey:  acc.Rekey / res.MTTSF,
		IDS:    acc.IDS / res.MTTSF,
		Beacon: acc.Beacon / res.MTTSF,
		MP:     acc.MP / res.MTTSF,
	}
	res.Ctotal = res.CostBreakdown.Total()
	res.Utilization = res.Ctotal / cfg.BandwidthBps
	if pw, err := cost.DefaultEnergyParams().Energy(res.CostBreakdown, cfg.N); err == nil {
		res.Power = pw
		res.MissionEnergyJ = pw.TotalW * res.MTTSF
	}

	// Failure-mode split over absorbing states, derived from the same
	// solution (no second solve). Summed in state order, so repeated
	// evaluations of one config agree bit for bit.
	var split [3]float64
	sol.AbsorptionSplit(causes, split[:])
	res.ProbC1, res.ProbC2, res.ProbDepleted = split[CauseC1], split[CauseC2], split[CauseNone]
	return res, nil
}

// absorbingCauses returns the failure cause of every absorbing state of
// the chain, in state order.
func (m *Model) absorbingCauses(graph *spn.Graph, chain *ctmc.Chain) []uint8 {
	causes := make([]uint8, 0, chain.NumAbsorbing())
	for i, mk := range graph.States {
		if chain.IsAbsorbing(i) {
			causes = append(causes, uint8(m.Classify(mk)))
		}
	}
	return causes
}

// sojournCost accumulates Σ_i y_i · cost(i) over the states with nonzero
// sojourn y_i, in state order. Absorbed (failed) and emptied states accrue
// no cost and are skipped, so a state's cost is evaluated only where it is
// transient and visited. Reads the frozen rate-factor tables; allocates
// nothing.
func (m *Model) sojournCost(graph *spn.Graph, sojourn linalg.Vector) cost.Breakdown {
	cfg := &m.Config
	params := cfg.costParams()
	clusterHead := cfg.Protocol == ProtocolClusterHead
	var acc cost.Breakdown
	var k stateKeys
	for i, y := range sojourn {
		if y == 0 {
			continue
		}
		m.keysOf(graph.States[i], &k)
		if !k.live || k.active() == 0 {
			continue
		}
		groups := max(k.ng, 1)
		slot := params.Slot(k.size, groups, clusterHead, cfg.PartitionRate, cfg.MergeRate)
		pfn, pfp := m.votingProbs(k.nGood, k.nBad)
		addCost(&acc, y, &slot, k.tm, k.ucm, groups, m.detectionRate(k.active()), votePair{pfn, pfp})
	}
	return acc
}

// addCost adds y times the cost reward of a live state with the given
// cost slot, token counts, group count, D(md) and (Pfn, Pfp). Evictions
// per second feed extra rekeys: the T_IDS and T_FA flows (plus T_RK
// drainage in the extended model, which is the same flow in steady
// state).
func addCost(acc *cost.Breakdown, y float64, slot *cost.Slot, tm, ucm, groups int, d float64, v votePair) {
	evictRate := idsRate(ucm, d, v.pfn) + faRate(tm, d, v.pfp)
	b := slot.Finish(d, evictRate/float64(groups))
	acc.GC += y * b.GC
	acc.Status += y * b.Status
	acc.Rekey += y * b.Rekey
	acc.IDS += y * b.IDS
	acc.Beacon += y * b.Beacon
	acc.MP += y * b.MP
}

// MTTSFOnly computes just the MTTSF (skipping cost rewards), for tight
// optimization loops.
func MTTSFOnly(cfg Config) (float64, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return p.MTTSF()
}

// SojournByMembership aggregates expected sojourn time by active-member
// count, a diagnostic of how the mission decays (used by cmd/mttsf -trace).
func SojournByMembership(cfg Config) (map[int]float64, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	sol, err := p.Solution()
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64)
	for i, y := range sol.SojournTimes() {
		if y > 0 {
			out[p.Model.activeMembers(p.Graph.States[i])] += y
		}
	}
	return out, nil
}
