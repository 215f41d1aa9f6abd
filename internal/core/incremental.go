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
// or the rate keys' sign check caught a changed enabled-transition set.
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
// configurations by re-rating the shared reachability graph from the
// family's rate keys (ratekeys.go), patching the cached generator pattern
// in place, and re-solving — exactly, through the session's reused
// block-triangular factorization, or through the working chain's solve
// ladder when the pattern is too cyclic for it or the config pins an
// iterative backend — skipping exploration, CSR assembly, transpose, and
// symbolic factorization entirely. Not safe for concurrent use, and each
// Prepared it returns aliases the working arrays: consume it (Analyze,
// ForwardSensitivities) before the next Prepared call patches under it.
type PreparedDelta struct {
	anchor  Config
	graph   *spn.Graph // CloneForRerate clone sharing the donor's structure
	pc      *ctmc.PatchedChain
	factors rateFactors // over the donor's rate keys
	model   *Model      // last patched point's model
}

// NewPreparedDelta anchors an incremental session on a fully prepared
// donor. The donor is never mutated and stays valid (and cacheable); the
// session owns private copies of the mutable value arrays, and shares
// with every other session of the donor what depends only on the family:
// the rate keys, the scatter maps and the direct solve's symbolic
// analysis, built by the first session (SessionBytes counts them).
func NewPreparedDelta(donor *Prepared) (*PreparedDelta, error) {
	keys, err := donor.rateKeys()
	if err != nil {
		return nil, err
	}
	g, err := donor.Graph.CloneForRerate(donor.Model.Net)
	if err != nil {
		return nil, err
	}
	pc, err := ctmc.NewPatchedChain(donor.Chain, donor.Graph)
	if err != nil {
		return nil, err
	}
	return &PreparedDelta{anchor: donor.Model.Config, graph: g, pc: pc, factors: rateFactors{keys: keys}}, nil
}

// SizeBytes estimates what the session holds privately: the re-rated
// graph's edge arena, the patched chain's value arrays and numeric
// factors, the factor tables, and the last patched model's detection
// table. What it shares with its donor — markings, state table, patterns,
// rate keys, scatter maps, symbolic analysis — is the donor's to count
// (Prepared.SizeBytes), and the voting table is the store's.
func (pd *PreparedDelta) SizeBytes() int64 {
	size := pd.graph.EdgeBytes() + pd.pc.SizeBytes() + pd.factors.sizeBytes()
	if pd.model != nil {
		size += pd.model.tableBytes()
	}
	return size
}

// Prepared evaluates cfg through the patch+re-solve path, returning a
// Prepared whose solution is already computed. A structural delta — by
// classification or by the rate keys' sign check — returns an error
// wrapping ErrStructuralDelta and counts a structural re-prepare; the
// session stays anchored and usable for later rate-only points. Any
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
	if err := pd.rerate(model); err != nil {
		structuralRepreps.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrStructuralDelta, err)
	}
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

	p := &Prepared{Model: model, Graph: pd.graph, Chain: pd.pc.Chain(), patched: &pd.factors}
	p.solveOnce.Do(func() { p.sol = sol })
	return p, nil
}

// rerate puts model's net under the session's graph and writes its edge
// rates from the family's rate keys: the keyed re-rate and its per-key
// structural check (rateFactors.rerate).
func (pd *PreparedDelta) rerate(model *Model) error {
	pd.graph.Net = model.Net
	pd.factors.fill(model)
	return pd.factors.rerate(pd.graph)
}
