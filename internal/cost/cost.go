// Package cost implements the communication traffic cost model of Section
// 4.2: Ĉtotal, the total traffic incurred per time unit in hop·bits/s,
// decomposed exactly as the paper decomposes it —
//
//	Ĉtotal,i = ĈGC,i + Ĉstatus,i + Ĉrekey,i + ĈIDS,i + Ĉbeacon,i + Ĉmp,i
//
// for a system state with a given number of groups and per-group
// composition. Every component multiplies a message rate (1/s), a message
// size (bits), and a hop multiplier (link transmissions per message), so
// the unit is hop·bits/s throughout; dividing Ĉtotal by the shared wireless
// bandwidth gives the channel utilization that bounds per-packet delay.
package cost

import (
	"fmt"
	"math"
)

// Params are the static traffic parameters of the cost model. All sizes
// are in bits, all rates in events per second.
type Params struct {
	// PacketBits is the size of a group-communication data packet.
	PacketBits float64
	// StatusBits is the size of one host-IDS status exchange message.
	StatusBits float64
	// StatusRate is the per-node rate of status exchange with neighbors.
	StatusRate float64
	// VoteBits is the size of one vote message in voting-based IDS.
	VoteBits float64
	// BeaconBits is the size of a periodic one-hop beacon.
	BeaconBits float64
	// BeaconRate is the per-node beacon rate.
	BeaconRate float64
	// GDHElementBits is the wire size of one GDH group element (the key
	// agreement's modulus size).
	GDHElementBits int
	// MeanHops is the mean hop count between reachable node pairs, from
	// the MANET calibration; it multiplies unicast traffic.
	MeanHops float64
	// MeanDegree is the mean one-hop neighbor count, multiplying local
	// (neighbor-scope) traffic such as status exchange.
	MeanDegree float64
	// LambdaQ is the per-node group communication (data packet) rate.
	LambdaQ float64
	// JoinRate and LeaveRate are per-node membership change rates; each
	// change triggers a GDH rekey.
	JoinRate, LeaveRate float64
	// M is the number of vote participants per voting round.
	M int
}

// DefaultParams returns sizes and rates consistent with the paper's
// environment (Section 5): λq = 1/min, join 1/hr, leave 1/(4 hr), GDH key
// agreement over a 1536-bit group, small control messages.
func DefaultParams() Params {
	return Params{
		PacketBits:     512 * 8, // 512-byte application payload
		StatusBits:     64 * 8,
		StatusRate:     1.0 / 10,
		VoteBits:       16 * 8,
		BeaconBits:     8 * 8,
		BeaconRate:     1,
		GDHElementBits: 1536,
		MeanHops:       3,
		MeanDegree:     8,
		LambdaQ:        1.0 / 60,
		JoinRate:       1.0 / 3600,
		LeaveRate:      1.0 / (4 * 3600),
		M:              5,
	}
}

// Validate checks the parameters. Every float field must be finite: a NaN
// passes every range comparison below.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"PacketBits", p.PacketBits}, {"StatusBits", p.StatusBits},
		{"StatusRate", p.StatusRate}, {"VoteBits", p.VoteBits},
		{"BeaconBits", p.BeaconBits}, {"BeaconRate", p.BeaconRate},
		{"MeanHops", p.MeanHops}, {"MeanDegree", p.MeanDegree},
		{"LambdaQ", p.LambdaQ}, {"JoinRate", p.JoinRate}, {"LeaveRate", p.LeaveRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cost: %s = %v, need a finite value", f.name, f.v)
		}
	}
	switch {
	case p.PacketBits <= 0, p.StatusBits < 0, p.VoteBits < 0, p.BeaconBits < 0:
		return fmt.Errorf("cost: non-positive message size in %+v", p)
	case p.StatusRate < 0, p.BeaconRate < 0, p.LambdaQ < 0, p.JoinRate < 0, p.LeaveRate < 0:
		return fmt.Errorf("cost: negative rate in %+v", p)
	case p.GDHElementBits <= 0:
		return fmt.Errorf("cost: GDHElementBits = %d", p.GDHElementBits)
	case p.MeanHops < 1:
		return fmt.Errorf("cost: MeanHops = %v < 1", p.MeanHops)
	case p.MeanDegree < 0:
		return fmt.Errorf("cost: negative MeanDegree %v", p.MeanDegree)
	case p.M < 1:
		return fmt.Errorf("cost: M = %d < 1", p.M)
	}
	return nil
}

// State is the dynamic input evaluated per SPN state.
type State struct {
	// GroupSize is the number of active members in one group.
	GroupSize int
	// Groups is the current number of groups (mark(NG)).
	Groups int
	// DetectionRate is D(md), the per-group IDS invocation rate (1/s).
	DetectionRate float64
	// EvictionRekeyRate is the per-group rate of evictions (extra rekeys
	// beyond join/leave churn).
	EvictionRekeyRate float64
	// PartitionRate and MergeRate are the group birth/death rates from
	// mobility calibration.
	PartitionRate, MergeRate float64
	// ClusterHead switches the IDS traffic term from per-target voting
	// panels to one status report per member per round (the cluster-head
	// architecture of the paper's related work).
	ClusterHead bool
}

// Breakdown is the per-component cost, each in hop·bits/s.
type Breakdown struct {
	GC     float64 // group communication (data multicast)
	Status float64 // host-IDS status exchange with neighbors
	Rekey  float64 // GDH rekeying on join/leave/eviction
	IDS    float64 // voting traffic of periodic IDS rounds
	Beacon float64 // one-hop beacons
	MP     float64 // group merge/partition reconfiguration
}

// Total returns the sum of all components: Ĉtotal,i.
func (b Breakdown) Total() float64 {
	return b.GC + b.Status + b.Rekey + b.IDS + b.Beacon + b.MP
}

// gdhValues is the GDH.2 wire value count (n-1)(n+4)/2, duplicated from
// package gdh's closed form to keep this package's arithmetic explicit.
func gdhValues(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * float64(n+4) / 2
}

// Evaluate computes the cost breakdown for a state. Groups and GroupSize
// below 1 contribute zero cost. It is Slot followed by Slot.Finish.
func (p Params) Evaluate(s State) Breakdown {
	sl := p.Slot(s.GroupSize, s.Groups, s.ClusterHead, s.PartitionRate, s.MergeRate)
	return sl.Finish(s.DetectionRate, s.EvictionRekeyRate)
}

// Slot is the part of a state's cost that the detection rate and the
// eviction rate do not enter: it depends on the group size and count, the
// architecture and the group dynamics rates alone. A caller that meets
// one slot in many states computes it once and finishes it per state,
// bitwise as Evaluate would.
type Slot struct {
	g                      float64 // groups
	gc, status, beacon, mp float64
	churn                  float64 // join/leave rekeys per group per second
	rekeyBits              float64
	perRound               float64 // IDS traffic per invocation
	meanHops               float64
	zero                   bool // Groups or GroupSize below 1
}

// Slot computes the slot of a state with the given group size and count.
func (p Params) Slot(groupSize, groups int, clusterHead bool, partitionRate, mergeRate float64) Slot {
	if groups < 1 || groupSize < 1 {
		return Slot{zero: true}
	}
	n := float64(groupSize)
	g := float64(groups)
	s := Slot{g: g, meanHops: p.MeanHops}

	// Group communication: each member multicasts data packets at rate
	// LambdaQ; BFS-tree delivery to a group of n costs n-1 link
	// transmissions per packet.
	s.gc = g * n * p.LambdaQ * p.PacketBits * (n - 1)

	// Status exchange: neighbor-scope gossip of host-IDS observations.
	s.status = g * n * p.StatusRate * p.StatusBits * p.MeanDegree

	// Rekeying: join/leave churn plus IDS evictions (added in Finish),
	// each a full GDH.2 run whose values travel MeanHops on average.
	s.churn = n * (p.JoinRate + p.LeaveRate)
	s.rekeyBits = gdhValues(groupSize) * float64(p.GDHElementBits)

	// IDS traffic per invocation. Voting: every member is assessed by a
	// panel of m voters; each voter unicasts a vote to the panel
	// coordinator and the verdict is multicast back (m + m transmissions
	// of VoteBits per target, each over MeanHops). Cluster-head: each
	// member unicasts one status report to the head per round.
	if clusterHead {
		s.perRound = n * p.VoteBits * p.MeanHops
	} else {
		mEff := float64(p.M)
		if pool := n - 1; pool < mEff {
			mEff = pool
			if mEff < 0 {
				mEff = 0
			}
		}
		s.perRound = n * (2 * mEff) * p.VoteBits * p.MeanHops
	}

	// Beacons: one-hop broadcasts.
	s.beacon = g * n * p.BeaconRate * p.BeaconBits

	// Merge/partition: each event reforms group state with a GDH rekey
	// across the affected membership.
	s.mp = (partitionRate + mergeRate) * s.rekeyBits * p.MeanHops
	return s
}

// Finish completes the slot's breakdown for a state with IDS invocation
// rate detectionRate and per-group eviction rate evictionRekeyRate.
func (s *Slot) Finish(detectionRate, evictionRekeyRate float64) Breakdown {
	if s.zero {
		return Breakdown{}
	}
	rekeyRate := s.churn + evictionRekeyRate
	return Breakdown{
		GC:     s.gc,
		Status: s.status,
		Rekey:  s.g * rekeyRate * s.rekeyBits * s.meanHops,
		IDS:    s.g * detectionRate * s.perRound,
		Beacon: s.beacon,
		MP:     s.mp,
	}
}
