package ctmc

import (
	"repro/internal/obs"
)

// Process-wide solver telemetry, registered once into the obs Default
// registry. The existing atomic counters (solveCount, solveIters, the
// fallback and incremental-path tallies) stay where they are — /v1/stats
// and the bench harness read them directly — and are exposed through
// scrape-time CounterFuncs, so the registry adds no cost to the counting
// paths.
//
// The histograms are different: they are new per-solve telemetry, written
// by observeSolve on the solve hot path. Each iterative backend, and the
// exact block-triangular rung that answers first under "auto", gets one
// latency and one iteration series, pre-registered here so recording is a
// map read plus atomic adds — no locks, no allocation.
var (
	solveLatencyHist = map[string]*obs.Histogram{}
	solveItersHist   = map[string]*obs.Histogram{}
)

func init() {
	r := obs.Default()
	r.CounterFunc("repro_solver_solves_total",
		"Logical transient solves performed (each may fall through the solve ladder).",
		func() float64 { return float64(SolveCount()) })
	r.CounterFunc("repro_solver_iterations_total",
		"Iterative-solver iterations across all backends.",
		func() float64 { return float64(SolveIterations()) })
	r.CounterFunc("repro_solver_fallbacks_total",
		"Solves where a backend broke down or failed validation and the degradation ladder engaged.",
		func() float64 { return float64(Fallbacks()) })
	r.SetCollector("repro_solver_fallbacks_by_backend_total",
		"Degradation-ladder engagements by the backend that failed.",
		obs.KindCounter, func(emit obs.Emit) {
			for name, n := range FallbacksByBackend() {
				emit(float64(n), obs.L("backend", name))
			}
		})
	r.SetCollector("repro_solver_iterations_by_backend_total",
		"Iterative-solver iterations by backend.",
		obs.KindCounter, func(emit obs.Emit) {
			for name, n := range SolveIterationsByBackend() {
				emit(float64(n), obs.L("backend", name))
			}
		})
	r.CounterFunc("repro_incremental_patched_solves_total",
		"Solves served through a delta-patched generator instead of a full re-prepare.",
		func() float64 { return float64(PatchedSolves()) })
	r.CounterFunc("repro_incremental_refactorizations_total",
		"ILU(0) factorizations of delta-patched generators, made for patched solves the exact direct solve does not answer.",
		func() float64 { return float64(Refactorizations()) })
	for _, b := range []string{blockTriBackend, BackendILUBiCGSTAB, BackendGMRES} {
		solveLatencyHist[b] = r.Histogram("repro_solver_solve_duration_seconds",
			"Wall time of one transient solve, labeled by the primary backend it was routed to (blocktri-direct when the exact direct solve answered).",
			obs.LatencyBuckets, obs.L("backend", b))
		solveItersHist[b] = r.Histogram("repro_solver_solve_iterations",
			"Iterations of one transient solve (all ladder rungs included), labeled by primary backend.",
			obs.IterationBuckets, obs.L("backend", b))
	}
}

// observeSolve records one armed solve: stage wall time plus the latency
// and iteration histograms of the primary backend, or of blocktri-direct
// when the direct solve answered. A backend name outside the
// pre-registered set (an invalid REPRO_SOLVER sentinel) skips the
// per-backend series.
func observeSolve(backend string, seconds float64, iters uint64) {
	obs.ObserveStage(obs.StageSolve, seconds)
	if h := solveLatencyHist[backend]; h != nil {
		h.Observe(seconds)
	}
	if h := solveItersHist[backend]; h != nil {
		h.Observe(float64(iters))
	}
}
