package core

import (
	"fmt"
)

// Config delta classification for the incremental re-solve path. A sweep of
// neighbouring configurations reuses one reachability graph exactly when
// the parameter diff cannot change which transitions are enabled in any
// marking — i.e. it only moves strictly positive rates around. The
// classifier splits diffs by which Config fields feed *guards and
// exploration bounds* (structural) versus which only feed *rate and cost
// closures* (rate-only), with explicit zero-crossing rules for the fields
// whose rates can vanish:
//
//   - T_DRQ fires at P1·LambdaQ·mark(UCm): the product's zeroness must be
//     preserved across the delta.
//   - T_PAR fires at PartitionRate, T_MER at MergeRate·(ng-1): each rate's
//     zeroness must be preserved.
//   - T_IDS carries a (1-pfn) factor and T_FA a pfp factor, which the
//     voting model can drive to 0 only at the closed P1/P2 boundaries, so
//     a changed P1 or P2 must stay inside the open interval (0,1) on both
//     sides.
//
// Everything else — LambdaC, TIDS, ShapeP, the shape kinds, M, churn,
// bandwidth, the cost model, hop statistics — feeds strictly positive rate
// factors (internal/shapes clamps its growth curves at >= 1) or pure cost
// rewards, so it can never flip an enabling decision.
//
// The classifier is a fast gate, not the safety mechanism: the re-rate
// path re-verifies the full enabled-transition set state by state
// (spn.Graph.Rerate) and falls back to a structural re-prepare on any
// mismatch, so a conservative misclassification costs performance, never
// correctness.

// DeltaKind classifies the difference between two configurations.
type DeltaKind int

const (
	// DeltaNone means the configurations are evaluation-equivalent (they
	// differ at most in execution policy: Solver, the no-op Parallelism,
	// or the spelling of defaults).
	DeltaNone DeltaKind = iota
	// DeltaRateOnly means the reachability graph is identical and only
	// generator values (and cost rewards) change — the patch+re-solve
	// fast path applies.
	DeltaRateOnly
	// DeltaStructural means the marking graph may differ; a full
	// re-explore is required.
	DeltaStructural
)

// String implements fmt.Stringer.
func (k DeltaKind) String() string {
	switch k {
	case DeltaNone:
		return "none"
	case DeltaRateOnly:
		return "rate-only"
	case DeltaStructural:
		return "structural"
	default:
		return fmt.Sprintf("DeltaKind(%d)", int(k))
	}
}

// StructuralKey digests the Config fields that shape the reachability
// graph: place set, guard parameters, token counts, and exploration
// bounds. Two configurations with equal keys explore state spaces with
// identical markings and edge topology (modulo the rate zero-crossings
// ClassifyDelta checks separately). The engine's incremental batch path
// groups work by this key.
func StructuralKey(cfg Config) string {
	return fmt.Sprintf("p%d|n%d|g%d|e%t|s%d",
		cfg.Protocol, cfg.N, cfg.MaxGroups, cfg.ExplicitEviction, cfg.EffectiveMaxStates())
}

// openUnit reports whether v lies strictly inside (0,1).
func openUnit(v float64) bool { return v > 0 && v < 1 }

// ClassifyDelta classifies the parameter diff from a to b.
func ClassifyDelta(a, b Config) DeltaKind {
	if normalizeForDelta(a) == normalizeForDelta(b) && a.EffectiveCost() == b.EffectiveCost() {
		return DeltaNone
	}
	if StructuralKey(a) != StructuralKey(b) {
		return DeltaStructural
	}
	// Zero-crossing rules: a rate-only delta must keep every conditionally
	// vanishing rate on the same side of zero.
	if a.P1 != b.P1 && !(openUnit(a.P1) && openUnit(b.P1)) {
		return DeltaStructural
	}
	if a.P2 != b.P2 && !(openUnit(a.P2) && openUnit(b.P2)) {
		return DeltaStructural
	}
	if (a.P1*a.LambdaQ == 0) != (b.P1*b.LambdaQ == 0) {
		return DeltaStructural
	}
	if (a.PartitionRate == 0) != (b.PartitionRate == 0) {
		return DeltaStructural
	}
	if (a.MergeRate == 0) != (b.MergeRate == 0) {
		return DeltaStructural
	}
	return DeltaRateOnly
}

// normalizeForDelta strips the axes that never affect evaluation results:
// execution policy (Solver, the no-op Parallelism), the default-vs-explicit
// spelling of MaxStates, and the Cost pointer (cost equivalence is compared
// through EffectiveCost by the caller).
func normalizeForDelta(cfg Config) Config {
	cfg.Parallelism = 0
	cfg.Solver = ""
	cfg.MaxStates = cfg.EffectiveMaxStates()
	cfg.Cost = nil
	return cfg
}
