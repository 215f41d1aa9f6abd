package core

import (
	"fmt"
	"sync"

	"repro/internal/ctmc"
	"repro/internal/des"
	"repro/internal/spn"
)

// Prepared is one configuration's fully built evaluation state: the SPN,
// its reachability graph, the CTMC, and (lazily, computed at most once) the
// single sojourn-time solve every absorption metric derives from. It is
// safe for concurrent use and is the unit the evaluation engine caches:
// MTTSF, Ĉtotal, absorption splits, expected event counts, and exact CTMC
// survival sampling all reuse the same graph and the same solve.
type Prepared struct {
	Model *Model
	Graph *spn.Graph
	Chain *ctmc.Chain

	solveOnce sync.Once
	sol       *ctmc.Solution
	solErr    error

	resultOnce sync.Once
	result     *Result
	resultErr  error
}

// Prepare builds the SPN for cfg, explores its reachability graph, and
// assembles the CTMC — everything up to (but not including) the linear
// solve. The configuration's solver backend (Config.Solver, "" = auto) is
// pinned on the chain here so every solve derived from this Prepared —
// cold, warm-started, or all-starts — runs through it. Note the memoizing
// engine shares prepared models across solver spellings (the fingerprint
// excludes Solver, like Parallelism): a cache-hit Prepared keeps the
// backend of whichever spelling prepared it first, which is sound because
// backends are execution policy — its solution is memoized and
// tolerance-identical under every backend.
func Prepare(cfg Config) (*Prepared, error) {
	model, err := BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	graph, err := model.Explore()
	if err != nil {
		return nil, err
	}
	chain := ctmc.FromGraph(graph)
	if cfg.Solver != "" {
		backend, err := ctmc.SolverBackendByName(cfg.Solver)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		chain.SetSolver(backend)
	}
	return &Prepared{Model: model, Graph: graph, Chain: chain}, nil
}

// SizeBytes estimates the resident footprint of the prepared model: the
// interned markings and edge arena of the reachability graph plus the CTMC
// generator, its (lazily cached) transient sub-generator pair, and the
// sojourn solution. The evaluation engine byte-budgets its prepared-model
// LRU with this estimate.
func (p *Prepared) SizeBytes() int64 {
	const (
		wordBytes = 8
		edgeBytes = 24 // spn.Edge: To int, Rate float64, Transition int
		csrBytes  = 16 // per nonzero: ColIdx int + Val float64
	)
	n := int64(p.Graph.NumStates())
	places := int64(len(p.Graph.PlaceIdx))
	edges := int64(p.Graph.NumEdges())
	nnz := int64(p.Chain.Generator().NNZ())
	size := n*places*wordBytes // marking arena
	size += edges * edgeBytes  // edge arena
	size += n * 3 * wordBytes  // States/Edges headers-ish + marking table
	// Generator plus two slots bounded by the full generator each — the
	// cached Q_TT^T and the solve state beside it (its block-triangular
	// factors, or Q_TT and ILU(0) factors when a solve path needs them) —
	// and the sojourn vector.
	size += 3 * (nnz*csrBytes + (n+1)*wordBytes)
	size += n * wordBytes
	return size
}

// Solution returns the sojourn-time solve for the initial marking,
// performing it on first use. Repeated calls — and every metric derived
// through this Prepared — share the one solve.
func (p *Prepared) Solution() (*ctmc.Solution, error) {
	p.solveOnce.Do(func() {
		p.sol, p.solErr = p.Chain.Solve(p.Graph.Initial)
	})
	return p.sol, p.solErr
}

// SolutionSwept performs (or reuses) the solve as part of a sweep chain:
// a cache-hit Prepared feeds its memoized solution into ws so the next
// grid point still warm-starts; a miss solves through ws, inheriting the
// previous point's sojourn vector and the sweep's calibrated relaxation
// factor.
func (p *Prepared) SolutionSwept(ws *ctmc.SweepSolver) (*ctmc.Solution, error) {
	p.solveOnce.Do(func() {
		p.sol, p.solErr = ws.Solve(p.Chain, p.Graph.Initial)
	})
	ws.Observe(p.sol)
	return p.sol, p.solErr
}

// Analyze assembles the full Result (MTTSF, Ĉtotal and its breakdown,
// failure split, utilization, energy) from the shared single solve. The
// Result is computed once and memoized on the Prepared; callers receive a
// shared pointer and must not mutate it.
func (p *Prepared) Analyze() (*Result, error) {
	p.resultOnce.Do(func() {
		p.result, p.resultErr = p.analyze()
	})
	return p.result, p.resultErr
}

// MTTSF returns just the mean time to security failure, from the shared
// solve (a chain with no absorbing states fails fast inside the solve).
func (p *Prepared) MTTSF() (float64, error) {
	sol, err := p.Solution()
	if err != nil {
		return 0, err
	}
	return sol.MeanTimeToAbsorption()
}

// ExpectedCounts computes the expected event counts from the shared solve.
func (p *Prepared) ExpectedCounts() (*EventCounts, error) {
	sol, err := p.Solution()
	if err != nil {
		return nil, err
	}
	return countsFromSojourn(p.Model, p.Graph, sol.SojournTimes()), nil
}

// SampleFailureTimes draws reps independent times-to-absorption by walking
// the already-explored reachability graph; no linear solve is involved.
func (p *Prepared) SampleFailureTimes(reps int, seed int64) ([]FailureSample, error) {
	if reps < 1 {
		return nil, fmt.Errorf("core: need at least 1 replication")
	}
	rng := des.NewStream(seed)
	out := make([]FailureSample, reps)
	for r := 0; r < reps; r++ {
		out[r] = sampleOnce(p.Model, p.Graph, rng)
	}
	return out, nil
}

// Survival estimates the survival function with reps exact CTMC samples
// over the shared reachability graph.
func (p *Prepared) Survival(reps int, seed int64) (*SurvivalCurve, error) {
	samples, err := p.SampleFailureTimes(reps, seed)
	if err != nil {
		return nil, err
	}
	return survivalFromSamples(samples), nil
}
