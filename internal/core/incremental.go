package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ctmc"
	"repro/internal/spn"
)

// structuralRepreps counts incremental-path points that had to fall back
// to a full re-prepare: the delta classifier called the diff structural,
// or the re-rate replay caught a changed enabled-transition set.
var structuralRepreps atomic.Uint64

// StructuralRepreps returns the cumulative number of incremental-path
// fallbacks to a full explore+assemble+factor re-prepare.
func StructuralRepreps() uint64 { return structuralRepreps.Load() }

// ErrStructuralDelta reports that a configuration handed to a
// PreparedDelta differs structurally from its anchor: the caller must
// evaluate it through the full Prepare path (and typically re-anchor a
// fresh PreparedDelta on the result).
var ErrStructuralDelta = errors.New("core: structural config delta; full re-prepare required")

// PreparedDelta is the incremental re-solve seam: anchored on one fully
// prepared configuration, it evaluates rate-only neighbouring
// configurations by re-rating the shared reachability graph, patching the
// cached generator pattern in place, and re-solving — exactly, through
// the session's reused block-triangular factorization, or through the
// working chain's solve ladder when the pattern is too cyclic for it or
// the config pins an iterative backend — skipping exploration, CSR
// assembly, transpose, and symbolic factorization entirely. Not safe for
// concurrent use, and each Prepared it returns aliases the working
// arrays: consume it (Analyze, ForwardSensitivities) before the next
// Prepared call patches under it.
//
// Every patched model reads a voting table someone else filled when it
// can: Model.votingProbs is a pure function of (Protocol, M, P1, P2) and
// the per-group composition, so while those four match the donor's —
// every TIDS sweep, and every run of equal m in a design space — a
// rebuilt model reads the donor's frozen table (by pointer: no copy, and
// no lock, since a frozen table is never written again), and otherwise
// the previous patched model's. Only a point with new voting inputs fills
// a table, during its Rerate, and freezes it. The detection table depends
// on TIDS and is never carried.
type PreparedDelta struct {
	anchor Config
	graph  *spn.Graph // CloneForRerate clone sharing the donor's structure
	pc     *ctmc.PatchedChain
	donor  *Model // the donor's model, whose voting table Explore froze
	model  *Model // last patched point's model
}

// NewPreparedDelta anchors an incremental session on a fully prepared
// donor. The donor is never mutated and stays valid (and cacheable); the
// session owns private copies of the mutable value arrays.
func NewPreparedDelta(donor *Prepared) (*PreparedDelta, error) {
	g, err := donor.Graph.CloneForRerate(donor.Model.Net)
	if err != nil {
		return nil, err
	}
	pc, err := ctmc.NewPatchedChain(donor.Chain, donor.Graph)
	if err != nil {
		return nil, err
	}
	return &PreparedDelta{anchor: donor.Model.Config, graph: g, pc: pc, donor: donor.Model}, nil
}

// SizeBytes estimates what the session holds privately: the re-rated
// graph's edge arena, the patched chain's value arrays, Q_TT, factors and
// scatter maps, and the last patched model's rate-factor tables. The structure it shares with its donor — markings,
// state table, generator pattern, the voting table — is the donor's to
// count (Prepared.SizeBytes).
func (pd *PreparedDelta) SizeBytes() int64 {
	size := pd.graph.EdgeBytes() + pd.pc.SizeBytes()
	if pd.model != nil {
		size += pd.model.tableBytes(pd.model.vote != pd.donor.vote)
	}
	return size
}

// Prepared evaluates cfg through the patch+re-solve path, returning a
// Prepared whose solution is already computed. A structural delta — by
// classification or by the re-rate replay's ground-truth check — returns
// an error wrapping ErrStructuralDelta and counts a structural re-prepare;
// the session stays anchored and usable for later rate-only points. Any
// other error is a hard solve failure: fall back to the full path.
func (pd *PreparedDelta) Prepared(cfg Config) (*Prepared, error) {
	if ClassifyDelta(pd.anchor, cfg) == DeltaStructural {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w (anchor %s, point %s)", ErrStructuralDelta,
			StructuralKey(pd.anchor), StructuralKey(cfg))
	}
	model, err := BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	if sameVoting(pd.donor.Config, cfg) {
		model.vote = pd.donor.vote
	} else if prev := pd.model; prev != nil && sameVoting(prev.Config, cfg) {
		model.vote = prev.vote
	}
	// Swap the rebuilt net's rate function under the shared graph and
	// replay the enabling scan — the ground-truth structural check.
	pd.graph.Net = model.Net
	if err := pd.graph.Rerate(); err != nil {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrStructuralDelta, err)
	}
	model.vote.freeze()
	pd.model = model
	if err := pd.pc.PatchRates(pd.graph); err != nil {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrStructuralDelta, err)
	}
	sol, err := pd.pc.Solve(pd.graph.Initial)
	if err != nil {
		return nil, err
	}
	pd.anchor = cfg

	p := &Prepared{Model: model, Graph: pd.graph, Chain: pd.pc.Chain()}
	p.solveOnce.Do(func() { p.sol = sol })
	return p, nil
}

// sameVoting reports whether two configurations share every input of
// Model.votingProbs besides the group composition it is keyed on.
func sameVoting(a, b Config) bool {
	return a.Protocol == b.Protocol && a.M == b.M && a.P1 == b.P1 && a.P2 == b.P2
}
