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
// sojourn, sensitivity, or all-starts — runs through it. Note the memoizing
// engine shares prepared models across solver spellings (the fingerprint
// excludes Solver, as it excludes the no-op Parallelism): a cache-hit
// Prepared keeps the backend of whichever spelling prepared it first,
// which is sound because backends are execution policy — its solution is
// memoized and tolerance-identical under every backend.
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

// SizeBytes estimates the resident footprint of the prepared model once
// solved: the reachability graph (spn.Graph.SizeBytes, from its arrays'
// capacities), the CTMC with the solve state its first solve builds
// (ctmc.Chain.SizeBytes: Q_TT^T and the block-triangular factors), the
// sojourn vector, and the model's rate-factor tables. It holds before the
// solve too, so the evaluation engine can charge a model to its
// byte-budgeted LRU when it caches it.
func (p *Prepared) SizeBytes() int64 {
	return p.Graph.SizeBytes() + p.Chain.SizeBytes() + int64(p.Graph.NumStates())*8 +
		p.Model.tableBytes(true)
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
