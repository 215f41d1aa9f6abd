// Package core implements the paper's primary contribution: the Stochastic
// Petri Net model of Figure 1 describing a mobile group under insider
// attack with voting-based intrusion detection, its parameterization
// (Section 4.1), and the computation of the two evaluation metrics —
// MTTSF, the mean time to security failure, and Ĉtotal, the communication
// traffic cost per time unit (Section 4.2) — together with the
// optimal-TIDS search and the adaptive detection-function selection the
// paper's Section 5 demonstrates.
package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/ctmc"
	"repro/internal/shapes"
)

// Protocol selects the distributed IDS architecture being analyzed.
type Protocol int

const (
	// ProtocolVoting is the paper's contribution: each target judged by a
	// majority vote of m dynamically selected participants.
	ProtocolVoting Protocol = iota
	// ProtocolClusterHead is the related-work comparator ([1], [12], [14]
	// in the paper's bibliography): one head node decides alone. Cheaper
	// per round, but a compromised head subverts detection entirely.
	ProtocolClusterHead
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolVoting:
		return "voting"
	case ProtocolClusterHead:
		return "cluster-head"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config collects every model parameter. The zero value is not valid; use
// DefaultConfig as a starting point (it reproduces the paper's Section 5
// environment).
type Config struct {
	// Protocol selects voting-based (default) or cluster-head IDS.
	Protocol Protocol
	// N is the initial number of group members (paper default 100).
	N int
	// Attacker selects the attacker strength function A(mc).
	Attacker shapes.Kind
	// Detection selects the detection function D(md).
	Detection shapes.Kind
	// LambdaC is the base node compromising rate (paper: 1 per 12 hours).
	LambdaC float64
	// TIDS is the base intrusion detection interval in seconds.
	TIDS float64
	// ShapeP is the shape index parameter p (paper chooses 3).
	ShapeP float64
	// M is the number of vote participants (paper default 5).
	M int
	// P1 and P2 are the host-based IDS false negative and false positive
	// probabilities (paper: 1%).
	P1, P2 float64
	// LambdaQ is the per-node group communication rate (paper: 1/min).
	LambdaQ float64
	// JoinRate and LeaveRate are per-node membership churn rates (paper:
	// 1/hr and 1/(4 hr)); they drive rekeying cost.
	JoinRate, LeaveRate float64
	// BandwidthBps is the shared wireless bandwidth (paper: 1 Mbps).
	BandwidthBps float64
	// GDHElementBits is the group element size for rekeying cost.
	GDHElementBits int
	// PartitionRate and MergeRate are the group birth/death rates; obtain
	// them from manet.Calibrate or leave the calibrated defaults.
	PartitionRate, MergeRate float64
	// MaxGroups bounds the group-count place NG (default 4).
	MaxGroups int
	// MeanHops and MeanDegree are network statistics from calibration.
	MeanHops, MeanDegree float64
	// Cost carries the traffic message sizes/rates; zero value selects
	// cost.DefaultParams with this Config's rates patched in.
	Cost *cost.Params
	// ExplicitEviction switches to the extended SPN with the DCm place
	// and the T_RK transition exactly as in Figure 1. The compact model
	// (default) folds the short rekey delay into the eviction itself,
	// which keeps the state space tractable at N = 100; the two models
	// agree as Tcm -> 0 (verified by tests). Use only for N <~ 40.
	ExplicitEviction bool
	// MaxStates bounds reachability exploration (default 2,000,000).
	MaxStates int
	// Parallelism has no effect: it is accepted and ignored. Exploration
	// is always the sequential explorer, and sweeps, batches and the
	// cluster parallelise across points instead. The field stays so that
	// existing callers and HTTP bodies keep working; a negative value is
	// still rejected by Validate. The evaluation engine excludes it from
	// Config fingerprints, so configurations differing only here share
	// cache entries.
	Parallelism int
	// Solver selects the linear-solver backend the transient sojourn
	// solves run through: "" or "auto" tries the exact block-triangular
	// direct solve first and solves a chain it declines with
	// ILU(0)-preconditioned BiCGSTAB; "ilu-bicgstab" or "gmres" skip the
	// direct solve and run that Krylov method first (see
	// ctmc.SolverBackendNames). Dense LU rescues a failed solve of at most
	// 1500 transient states under every backend.
	// Unlike Parallelism, which has no effect, it changes how a point is
	// solved, but it is an execution policy, not a model parameter: every
	// backend converges to the same 1e-12 relative residual, so the
	// evaluation engine excludes it from Config fingerprints and
	// configurations differing only here share cache entries — including
	// prepared models, which keep the backend of whichever spelling
	// prepared them first. The REPRO_SOLVER environment variable overrides
	// the default for the whole process (CI runs the test suite as a
	// matrix over it).
	Solver string
}

// DefaultConfig returns the paper's Section 5 parameterization: N=100
// nodes in a 500 m-radius area, λ=1/hr, μ=1/(4 hr), λq=1/min, λc=1/(12 hr),
// p1=p2=1%, BW=1 Mbps, m=5, p=3, linear attacker and detection, TIDS=120 s.
// The partition/merge rates and hop statistics default to values calibrated
// with manet.Calibrate (100 nodes, 250 m radio range, random waypoint in a
// 500 m disc); cmd/mobility recomputes them.
func DefaultConfig() Config {
	return Config{
		N:              100,
		Attacker:       shapes.Linear,
		Detection:      shapes.Linear,
		LambdaC:        1.0 / (12 * 3600),
		TIDS:           120,
		ShapeP:         shapes.DefaultP,
		M:              5,
		P1:             0.01,
		P2:             0.01,
		LambdaQ:        1.0 / 60,
		JoinRate:       1.0 / 3600,
		LeaveRate:      1.0 / (4 * 3600),
		BandwidthBps:   1e6,
		GDHElementBits: 1536,
		// Calibrated via internal/manet (see cmd/mobility): with 100
		// nodes at 250 m range in a 500 m disc the network is almost
		// always one group; partitions are rare and short-lived.
		PartitionRate: 2.0e-4,
		MergeRate:     8.0e-4,
		MaxGroups:     4,
		MeanHops:      2.2,
		MeanDegree:    20,
	}
}

// Validate checks parameter sanity and returns a descriptive error. Every
// float field must be finite: a NaN passes every range comparison below,
// and an infinite rate or interval would switch a mechanism off or on
// without changing the graph's structure key.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"LambdaC", c.LambdaC}, {"TIDS", c.TIDS}, {"ShapeP", c.ShapeP},
		{"P1", c.P1}, {"P2", c.P2}, {"LambdaQ", c.LambdaQ},
		{"JoinRate", c.JoinRate}, {"LeaveRate", c.LeaveRate},
		{"BandwidthBps", c.BandwidthBps},
		{"PartitionRate", c.PartitionRate}, {"MergeRate", c.MergeRate},
		{"MeanHops", c.MeanHops}, {"MeanDegree", c.MeanDegree},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s = %v, need a finite value", f.name, f.v)
		}
	}
	switch {
	case c.N < 2:
		return fmt.Errorf("core: N = %d, need >= 2", c.N)
	case c.LambdaC <= 0:
		return fmt.Errorf("core: LambdaC = %v, need > 0", c.LambdaC)
	case c.TIDS <= 0:
		return fmt.Errorf("core: TIDS = %v, need > 0", c.TIDS)
	case c.M < 1:
		return fmt.Errorf("core: M = %d, need >= 1", c.M)
	case c.P1 < 0 || c.P1 > 1:
		return fmt.Errorf("core: P1 = %v outside [0,1]", c.P1)
	case c.P2 < 0 || c.P2 > 1:
		return fmt.Errorf("core: P2 = %v outside [0,1]", c.P2)
	case c.LambdaQ < 0:
		return fmt.Errorf("core: LambdaQ = %v, need >= 0", c.LambdaQ)
	case c.JoinRate < 0 || c.LeaveRate < 0:
		return fmt.Errorf("core: negative churn rates")
	case c.BandwidthBps <= 0:
		return fmt.Errorf("core: BandwidthBps = %v, need > 0", c.BandwidthBps)
	case c.GDHElementBits <= 0:
		return fmt.Errorf("core: GDHElementBits = %d, need > 0", c.GDHElementBits)
	case c.PartitionRate < 0 || c.MergeRate < 0:
		return fmt.Errorf("core: negative group dynamics rates")
	case c.MaxGroups < 1:
		return fmt.Errorf("core: MaxGroups = %d, need >= 1", c.MaxGroups)
	case c.MeanHops < 1:
		return fmt.Errorf("core: MeanHops = %v, need >= 1", c.MeanHops)
	case c.ShapeP <= 1:
		return fmt.Errorf("core: ShapeP = %v, need > 1", c.ShapeP)
	case c.Parallelism < 0:
		return fmt.Errorf("core: Parallelism = %d, need >= 0", c.Parallelism)
	}
	if c.Solver != "" {
		if _, err := ctmc.SolverBackendByName(c.Solver); err != nil {
			return fmt.Errorf("core: Solver: %w", err)
		}
	}
	if c.Cost != nil {
		if err := c.Cost.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultMaxStates is the reachability-exploration bound applied when
// Config.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// EffectiveCost returns the cost.Params this configuration actually
// evaluates with: the explicit override if set, otherwise the defaults
// with the shared rates patched in. Two Configs with equal EffectiveCost
// are cost-equivalent regardless of whether Cost was spelled out — the
// evaluation engine fingerprints through this.
func (c Config) EffectiveCost() cost.Params { return c.costParams() }

// EffectiveMaxStates returns the exploration bound with the default
// applied.
func (c Config) EffectiveMaxStates() int {
	if c.MaxStates == 0 {
		return DefaultMaxStates
	}
	return c.MaxStates
}

// costParams assembles the cost.Params for this configuration, patching
// the shared rates into the defaults unless an explicit override is given.
func (c Config) costParams() cost.Params {
	var p cost.Params
	if c.Cost != nil {
		p = *c.Cost
	} else {
		p = cost.DefaultParams()
		p.LambdaQ = c.LambdaQ
		p.JoinRate = c.JoinRate
		p.LeaveRate = c.LeaveRate
		p.GDHElementBits = c.GDHElementBits
		p.MeanHops = c.MeanHops
		p.MeanDegree = c.MeanDegree
		p.M = c.M
	}
	return p
}

// attacker builds the attacker function for this configuration.
func (c Config) attacker() shapes.Attacker {
	return shapes.Attacker{Kind: c.Attacker, LambdaC: c.LambdaC, P: c.ShapeP}
}

// detection builds the detection function for this configuration.
func (c Config) detection() shapes.Detection {
	return shapes.Detection{Kind: c.Detection, TIDS: c.TIDS, P: c.ShapeP}
}
