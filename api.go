// Package repro is the public API of a full reproduction of
//
//	Jin-Hee Cho and Ing-Ray Chen, "Performance Analysis of Distributed
//	Intrusion Detection Protocols for Mobile Group Communication
//	Systems", IPPS/IPDPS Workshops, 2009.
//
// The library models a mission-oriented group communication system (GCS)
// in a multi-hop mobile ad hoc network, protected by a voting-based
// distributed intrusion detection protocol, and answers the paper's design
// questions:
//
//   - What is the mean time to security failure (MTTSF) of the system
//     under logarithmic / linear / polynomial insider attackers?
//   - What total communication cost (Ĉtotal, hop·bits/s) does the
//     protocol stack induce?
//   - Which base detection interval TIDS maximizes MTTSF — possibly
//     subject to a cost budget — and which detection function should be
//     deployed against the attacker strength observed at runtime?
//
// Two independent evaluation engines back every answer: an analytical
// Stochastic Petri Net whose CTMC is solved exactly (package
// internal/core), and a protocol-granular Monte Carlo simulator (package
// internal/sim). See DESIGN.md for the system inventory and EXPERIMENTS.md
// for figure-by-figure reproduction results.
//
// Quickstart:
//
//	cfg := repro.DefaultConfig()
//	res, err := repro.Analyze(cfg)
//	if err != nil { ... }
//	fmt.Printf("MTTSF = %.3g s, Ctotal = %.3g hop·bits/s\n", res.MTTSF, res.Ctotal)
package repro

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ids"
	"repro/internal/manet"
	"repro/internal/service"
	"repro/internal/shapes"
	"repro/internal/sim"
	"repro/internal/voting"
)

// Config collects every model parameter; see DefaultConfig for the paper's
// Section 5 environment.
type Config = core.Config

// Result is the output of one analytical evaluation: MTTSF, Ĉtotal with
// its component breakdown, and the failure-mode split.
type Result = core.Result

// SweepPoint pairs a TIDS value with its evaluation.
type SweepPoint = core.SweepPoint

// SweepOption configures a grid driver (SweepTIDS, ExploreDesignSpace,
// TradeoffFrontier). Every driver fans its points over the default engine
// whatever the options; only WithContext changes behaviour.
type SweepOption = core.SweepOption

// WithWarmStart is accepted for compatibility and has no effect: every
// sweep already reuses its neighbours' graph, factorization and sojourn
// vector.
func WithWarmStart() SweepOption { return core.WithWarmStart() }

// WithIncremental is accepted for compatibility and has no effect: every
// engine miss already takes the incremental patch+re-solve path
// (rate-only generator patches on a shared reachability graph).
func WithIncremental() SweepOption { return core.WithIncremental() }

// WithContext makes the driver honor ctx: evaluation stops with ctx.Err()
// at the next point boundary after cancellation.
func WithContext(ctx context.Context) SweepOption { return core.WithContext(ctx) }

// Optimum is the best point of a sweep plus the full curve.
type Optimum = core.Optimum

// FailureCause labels how a mission ended (C1 data leak, C2 byzantine
// compromise, or none).
type FailureCause = core.FailureCause

// Failure causes.
const (
	CauseNone = core.CauseNone
	CauseC1   = core.CauseC1
	CauseC2   = core.CauseC2
)

// Kind selects an attacker or detection growth shape.
type Kind = shapes.Kind

// Growth shapes for attacker and detection functions.
const (
	Logarithmic = shapes.Logarithmic
	Linear      = shapes.Linear
	Polynomial  = shapes.Polynomial
)

// Protocol selects the IDS architecture under analysis.
type Protocol = core.Protocol

// IDS architectures.
const (
	// ProtocolVoting is the paper's voting-based IDS (default).
	ProtocolVoting = core.ProtocolVoting
	// ProtocolClusterHead is the related-work single-decider comparator.
	ProtocolClusterHead = core.ProtocolClusterHead
)

// DefaultConfig returns the paper's Section 5 parameterization (N=100,
// λc=1/12 hr, λq=1/min, p1=p2=1%, m=5, BW=1 Mb/s, linear attacker and
// detection, TIDS=120 s).
func DefaultConfig() Config { return core.DefaultConfig() }

// --- Solver backends ---

// Linear-solver backend names for Config.Solver. "auto" (also the empty
// string) answers first with the exact block-triangular direct solve,
// which takes every paper model in one topological sweep; a chain whose
// pattern it declines (a strongly connected component over 64 states, a
// singular block) is solved with ILU(0)-preconditioned BiCGSTAB, and dense
// LU rescues a failed solve of at most 1500 states. "ilu-bicgstab" and
// "gmres" skip the direct solve and run that Krylov method first, under
// the same rescue. All backends converge to the same 1e-12 relative
// residual, so the choice is pure execution policy and never changes
// results (or engine cache keys) beyond solver tolerance.
const (
	SolverAuto        = ctmc.BackendAuto
	SolverILUBiCGSTAB = ctmc.BackendILUBiCGSTAB
	SolverGMRES       = ctmc.BackendGMRES
)

// SolverBackends returns the sorted names of every linear-solver backend,
// all valid values for Config.Solver (and for the REPRO_SOLVER
// environment variable, which overrides the process default).
func SolverBackends() []string { return ctmc.SolverBackendNames() }

// --- Evaluation engine ---

// Engine is the memoizing evaluation service every answer routes through:
// one SPN/CTMC solve per unique configuration, an LRU of full Results
// keyed by a canonical Config fingerprint, and bounded-worker batching.
// The free functions below are thin wrappers over DefaultEngine; construct
// a private Engine with NewEngine to isolate cache state.
type Engine = engine.Engine

// EngineOptions sizes an Engine's caches and worker pool.
type EngineOptions = engine.Options

// EngineStats is a snapshot of an Engine's cache accounting.
type EngineStats = engine.Stats

// NewEngine constructs an isolated evaluation engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// DefaultEngine returns the shared process-wide engine the free functions
// and the internal sweep/figure/frontier drivers use.
func DefaultEngine() *Engine { return engine.Default() }

// Analyze solves the SPN/CTMC model — exactly one transient linear solve
// per unique configuration, memoized — and returns MTTSF, Ĉtotal and the
// failure split.
func Analyze(cfg Config) (*Result, error) { return engine.Default().Eval(cfg) }

// AnalyzeContext is Analyze with cancellation: a canceled context stops
// the evaluation before the expensive model build/solve starts (work
// already underway finishes and is cached).
func AnalyzeContext(ctx context.Context, cfg Config) (*Result, error) {
	return engine.Default().EvalContext(ctx, cfg)
}

// EvalBatch evaluates many configurations over the default engine's
// bounded worker pool, preserving order and deduplicating repeats.
func EvalBatch(cfgs []Config) ([]*Result, error) { return engine.Default().EvalBatch(cfgs) }

// EvalBatchContext is EvalBatch with cancellation: workers check the
// context at each point boundary, so an abandoned batch stops burning
// solver time on its remaining points.
func EvalBatchContext(ctx context.Context, cfgs []Config) ([]*Result, error) {
	return engine.Default().EvalBatchContext(ctx, cfgs)
}

// MTTSF computes the mean time to security failure. It routes through the
// same memoized evaluation as Analyze (one solve per unique configuration,
// concurrent duplicates deduplicated); use core-level MTTSFOnly via a
// custom Evaluator if the cost assembly must be skipped on cache misses.
func MTTSF(cfg Config) (float64, error) {
	res, err := engine.Default().Eval(cfg)
	if err != nil {
		return 0, err
	}
	return res.MTTSF, nil
}

// --- Evaluation service (remote engine) ---

// Client evaluates configurations against a running evaluation server
// (cmd/server) over its HTTP/JSON API; results decode to exactly the
// values an in-process engine returns for the same configurations. See
// the README's server quickstart for the endpoint table.
type Client = service.Client

// ServiceStats is the GET /v1/stats payload: the remote engine's cache
// accounting plus the service-level request counters.
type ServiceStats = service.StatsResponse

// ErrServerOverloaded reports a 429 from the server's admission control;
// the request was never evaluated and can be retried after a backoff.
var ErrServerOverloaded = service.ErrOverloaded

// ErrCircuitOpen reports a request refused locally by a resilient client's
// circuit breaker: the server failed repeatedly and the breaker is in its
// cooldown, so the request was never sent.
var ErrCircuitOpen = service.ErrCircuitOpen

// RetryPolicy opts a client into resilience: transparent retries with
// exponential backoff and full jitter on transient failures (429, 5xx,
// transport errors), per-attempt timeouts, and a circuit breaker. The zero
// value (as used by NewClient) keeps the legacy fail-fast behaviour.
type RetryPolicy = service.RetryPolicy

// ClientStats counts a client's resilience activity: retries performed,
// breaker trips, and requests refused while the breaker was open.
type ClientStats = service.ClientStats

// HealthResponse is the GET /healthz payload: overall status
// (ok/degraded/draining) plus the resilience counters behind it.
type HealthResponse = service.HealthResponse

// ClientOption configures a Client built by NewClient.
type ClientOption = service.ClientOption

// WithHTTPClient selects an explicit http.Client (custom transports,
// proxies, or TLS configuration); the default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption { return service.WithHTTPClient(hc) }

// WithRetryPolicy opts the client into resilience: transparent retries
// with jittered exponential backoff on transient failures (429, 5xx,
// transport errors) and a circuit breaker per the policy. Without it the
// client is fail-fast: one attempt, no breaker, a 429 surfaces immediately
// as ErrServerOverloaded.
func WithRetryPolicy(p RetryPolicy) ClientOption { return service.WithRetryPolicy(p) }

// NewClient builds a client for the evaluation server at baseURL (e.g.
// "http://127.0.0.1:8080"), configured by functional options:
//
//	repro.NewClient(url)                                  // fail-fast defaults
//	repro.NewClient(url, repro.WithHTTPClient(hc))        // custom transport
//	repro.NewClient(url, repro.WithRetryPolicy(policy))   // retries + breaker
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return service.NewClientOpts(baseURL, opts...)
}

// NewClientHTTP is NewClient with an explicit http.Client.
//
// Deprecated: use NewClient with WithHTTPClient.
func NewClientHTTP(baseURL string, hc *http.Client) *Client {
	return service.NewClient(baseURL, hc)
}

// NewResilientClient is NewClientHTTP with a retry/breaker policy: the
// client absorbs transient server failures (429/5xx/transport resets)
// transparently and fails fast with ErrCircuitOpen while the server is
// persistently down. Pass a nil http.Client for the default transport.
//
// Deprecated: use NewClient with WithHTTPClient and WithRetryPolicy.
func NewResilientClient(baseURL string, hc *http.Client, policy RetryPolicy) *Client {
	return service.NewResilientClient(baseURL, hc, policy)
}

// FrontierRequest parameterizes a remote adaptive-frontier stream
// (Client.Frontier / POST /v1/frontier).
type FrontierRequest = service.FrontierRequest

// BatchStreamLine is one line of a streamed batch response
// (Client.EvalBatchStream).
type BatchStreamLine = service.BatchStreamLine

// PaperTIDSGrid is the detection-interval grid used in the paper's figures.
var PaperTIDSGrid = core.PaperTIDSGrid

// PaperMGrid is the vote-participant grid used in Figures 2 and 3.
var PaperMGrid = core.PaperMGrid

// SweepTIDS evaluates the model across a grid of detection intervals. The
// points run in parallel over the engine's workers; the first miss of the
// grid's structural family pays a full prepare and every later one is
// patched onto its graph and re-solved. Points the engine has already
// evaluated are cache hits. WithContext makes the sweep cancelable
// between points.
func SweepTIDS(cfg Config, grid []float64, opts ...SweepOption) ([]SweepPoint, error) {
	return core.SweepTIDS(cfg, grid, opts...)
}

// OptimalTIDSForMTTSF finds the grid point maximizing MTTSF.
func OptimalTIDSForMTTSF(cfg Config, grid []float64) (*Optimum, error) {
	return core.OptimalTIDSForMTTSF(cfg, grid)
}

// OptimalTIDSForCost finds the grid point minimizing Ĉtotal.
func OptimalTIDSForCost(cfg Config, grid []float64) (*Optimum, error) {
	return core.OptimalTIDSForCost(cfg, grid)
}

// ConstrainedOptimum maximizes MTTSF subject to Ĉtotal <= budget
// (hop·bits/s) — the paper's security/performance tradeoff knob.
func ConstrainedOptimum(cfg Config, grid []float64, budget float64) (*Optimum, error) {
	return core.ConstrainedOptimum(cfg, grid, budget)
}

// DetectionComparison holds the Figure 4/5 series: one sweep per detection
// shape against a fixed attacker.
type DetectionComparison = core.DetectionComparison

// CompareDetections sweeps all three detection functions.
func CompareDetections(cfg Config, grid []float64) (*DetectionComparison, error) {
	return core.CompareDetections(cfg, grid)
}

// BestDetection returns the detection shape and TIDS maximizing MTTSF
// against the configured attacker.
func BestDetection(cfg Config, grid []float64) (Kind, float64, *Result, error) {
	return core.BestDetection(cfg, grid)
}

// --- Security/performance tradeoff frontier ---

// DesignPoint is one candidate (m, TIDS, detection) configuration with its
// MTTSF and Ĉtotal.
type DesignPoint = core.DesignPoint

// DesignSpace enumerates the candidate grid for the tradeoff exploration.
type DesignSpace = core.DesignSpace

// DefaultDesignSpace returns the paper's evaluation grid (m, TIDS,
// detection shapes).
func DefaultDesignSpace() DesignSpace { return core.DefaultDesignSpace() }

// TradeoffFrontier explores the design space and returns the Pareto
// frontier of MTTSF-vs-Ĉtotal — the paper's "optimal design settings under
// which the MTTSF metric can be best traded off for the communication cost
// metric or vice versa". It evaluates the full grid; Frontier reaches the
// same frontier adaptively with a fraction of the evaluations.
func TradeoffFrontier(cfg Config, space DesignSpace, opts ...SweepOption) ([]DesignPoint, error) {
	return core.TradeoffFrontier(cfg, space, opts...)
}

// ExploreDesignSpace evaluates every point of the design space (sorted by
// ascending Ĉtotal), without the frontier filter, through the same
// patched engine misses as SweepTIDS. It accepts the same options.
func ExploreDesignSpace(cfg Config, space DesignSpace, opts ...SweepOption) ([]DesignPoint, error) {
	return core.ExploreDesignSpace(cfg, space, opts...)
}

// ParetoFrontier filters points down to the non-dominated set (maximize
// MTTSF, minimize Ĉtotal), sorted by ascending Ĉtotal.
func ParetoFrontier(points []DesignPoint) []DesignPoint {
	return core.ParetoFrontier(points)
}

// --- Incremental frontier maintenance and adaptive exploration ---

// FrontierMaintainer maintains a Pareto frontier incrementally: one
// DesignPoint at a time, O(log n) per insert, with dominated-hypervolume
// accounting and per-insert improvement deltas.
type FrontierMaintainer = core.FrontierMaintainer

// FrontierDelta describes what one FrontierMaintainer insert changed.
type FrontierDelta = core.FrontierDelta

// NewFrontierMaintainer returns an empty frontier maintainer.
func NewFrontierMaintainer() *FrontierMaintainer { return core.NewFrontierMaintainer() }

// FrontierOptions configures an adaptive frontier exploration (design
// space, evaluation budget, improvement stopping threshold).
type FrontierOptions = engine.FrontierOptions

// FrontierRevision is one step of an adaptive frontier exploration: the
// accepted point, what it evicted, and the hypervolume after it — the unit
// both the emit callback and the /v1/frontier NDJSON stream deliver.
type FrontierRevision = engine.FrontierRevision

// Frontier computes the MTTSF-vs-Ĉtotal Pareto frontier adaptively over
// the default engine: cached results seed the frontier, certified bounds on
// the model's monotone structure rank the remaining candidates by optimistic
// hypervolume gain, and evaluation stops when no candidate can improve the
// frontier (or the budget runs out). The terminal frontier equals
// TradeoffFrontier's over the same space at a fraction of the evaluations;
// emit (optional) observes every revision as it lands. Returns the
// frontier and the number of fresh evaluations spent.
func Frontier(ctx context.Context, cfg Config, opts FrontierOptions, emit func(FrontierRevision) error) ([]DesignPoint, int, error) {
	return engine.Default().AdaptiveFrontier(ctx, cfg, opts, emit)
}

// --- Mission survivability (time-to-failure distribution) ---

// SurvivalCurve is the empirical survival function P(T_failure > t),
// sampled exactly from the analytical model's CTMC.
type SurvivalCurve = core.SurvivalCurve

// MissionAssurance reports the survival probability of a fixed-length
// mission across a TIDS grid and the best operating point.
type MissionAssurance = core.MissionAssurance

// Survival samples the time-to-security-failure distribution with reps
// exact CTMC replications over the engine's reachability graph for cfg's
// structural family: one explore per family, every other point of it a
// patched re-solve.
func Survival(cfg Config, reps int, seed int64) (*SurvivalCurve, error) {
	return engine.Default().Survival(cfg, reps, seed)
}

// AssureMission evaluates P(survive missionTime) across a TIDS grid and
// returns the operating point maximizing it. The mean-optimal and
// assurance-optimal TIDS can differ; missions care about the latter. The
// grid is one structural family, so it explores once.
func AssureMission(cfg Config, grid []float64, missionTime float64, reps int, seed int64) (*MissionAssurance, error) {
	return engine.Default().AssureMission(cfg, grid, missionTime, reps, seed)
}

// EventCounts are expected per-mission event counts (compromises,
// detections, false evictions, leaks, partitions, merges).
type EventCounts = core.EventCounts

// ExpectedCounts computes the expected number of each model event over one
// mission, cross-validated against the Monte Carlo simulator's counters.
// The counts derive from the engine's solve for the configuration, on its
// structural family's graph: one explore per family.
func ExpectedCounts(cfg Config) (*EventCounts, error) {
	p, err := engine.Default().Prepared(cfg)
	if err != nil {
		return nil, err
	}
	return p.ExpectedCounts()
}

// Sensitivity is one parameter's MTTSF elasticity.
type Sensitivity = core.Sensitivity

// SensitivityAnalysis perturbs each continuous model parameter by ±rel and
// returns MTTSF elasticities sorted by magnitude — which knobs matter.
func SensitivityAnalysis(cfg Config, rel float64) ([]Sensitivity, error) {
	return core.SensitivityAnalysis(cfg, rel)
}

// --- Incremental re-solve and forward sensitivities ---

// DeltaKind classifies a configuration diff for the incremental re-solve
// path: identical, rate-only (patch + re-solve on the cached generator
// pattern), or structural (full re-prepare required).
type DeltaKind = core.DeltaKind

// Delta classifications.
const (
	DeltaNone       = core.DeltaNone
	DeltaRateOnly   = core.DeltaRateOnly
	DeltaStructural = core.DeltaStructural
)

// ClassifyDelta classifies the diff between two configurations.
func ClassifyDelta(a, b Config) DeltaKind { return core.ClassifyDelta(a, b) }

// StructuralKey returns the canonical key of a configuration's structural
// family: configurations with equal keys that ClassifyDelta calls rate-only
// share one reachability graph and generator pattern.
func StructuralKey(cfg Config) string { return core.StructuralKey(cfg) }

// EvalBatchIncremental is EvalBatchContext. Every engine miss already
// patches a pooled session of its structural family and re-solves instead
// of re-preparing, so the incremental path needs no entry of its own.
//
// Deprecated: call EvalBatchContext.
func EvalBatchIncremental(ctx context.Context, cfgs []Config) ([]*Result, error) {
	return EvalBatchContext(ctx, cfgs)
}

// ParamSensitivity is one parameter's forward sensitivity: dMTTSF/dθ and
// the elasticity it implies, computed from the cached factorization by one
// extra linear solve (see Result.Sensitivities).
type ParamSensitivity = core.ParamSensitivity

// SensitivityParams lists the parameter keys forward sensitivities can
// differentiate by.
func SensitivityParams() []string { return core.SensitivityParams() }

// GradOptimum is the result of a gradient-guided TIDS search.
type GradOptimum = core.GradOptimum

// GradientOptimalTIDS locates the MTTSF-maximizing detection interval in
// [lo, hi] by bisecting the sign of the forward sensitivity dMTTSF/dTIDS in
// log space, probing through the incremental patch+re-solve path instead of
// a full prepare per point. tol is the relative bracket width (0 = 1%).
func GradientOptimalTIDS(cfg Config, lo, hi, tol float64) (*GradOptimum, error) {
	return core.GradientOptimalTIDS(cfg, lo, hi, tol)
}

// --- Runtime adaptation ---

// ClassifyAttacker infers the attacker strength function from observed
// compromise times (needs >= 3 observations); see ids.ClassifyAttacker.
func ClassifyAttacker(times []float64, nInit int) (Kind, error) {
	return ids.ClassifyAttacker(times, nInit, 0)
}

// BestResponse maps a classified attacker shape to the detection shape to
// deploy (Figure 4's matching result: respond in kind).
func BestResponse(attacker Kind) Kind { return ids.BestResponse(attacker) }

// --- Voting mathematics (Equation 1) ---

// VotingFalsePositive returns Pfp: the probability a healthy target is
// evicted by one voting round, given the group composition.
func VotingFalsePositive(nGood, nBad, m int, p2 float64) float64 {
	return voting.FalsePositive(nGood, nBad, m, p2)
}

// VotingFalseNegative returns Pfn: the probability a compromised target
// survives one voting round.
func VotingFalseNegative(nGood, nBad, m int, p1 float64) float64 {
	return voting.FalseNegative(nGood, nBad, m, p1)
}

// --- Monte Carlo simulation ---

// Simulator runs protocol-granular Monte Carlo missions.
type Simulator = sim.Runner

// MissionOutcome is the result of one simulated mission.
type MissionOutcome = sim.Outcome

// SimEstimate aggregates Monte Carlo replications.
type SimEstimate = sim.Estimate

// NewSimulator builds a Monte Carlo runner for a configuration.
func NewSimulator(cfg Config) (*Simulator, error) { return sim.NewRunner(cfg) }

// --- Mobility calibration ---

// GroupDynamics summarizes a random waypoint calibration run: partition and
// merge rates, mean hop count, mean group count.
type GroupDynamics = manet.GroupDynamics

// CalibrateOpts configures a mobility calibration run.
type CalibrateOpts = manet.CalibrateOpts

// CalibrateMobility estimates the group partition/merge rates and network
// statistics by simulating random waypoint mobility, as the paper does to
// parameterize T_PAR and T_MER.
func CalibrateMobility(opts CalibrateOpts) (*GroupDynamics, error) {
	return manet.Calibrate(opts)
}

// ApplyDynamicsChecked patches the calibrated group dynamics into a
// configuration, failing loudly on values the model cannot take: a
// calibration run that produced MeanHops < 1 or MeanDegree <= 0 (too few
// samples, a degenerate field geometry) returns an error instead of
// half-applying the rates and silently keeping the old topology statistics.
func ApplyDynamicsChecked(cfg Config, gd *GroupDynamics) (Config, error) {
	if gd == nil {
		return cfg, fmt.Errorf("repro: ApplyDynamicsChecked: nil GroupDynamics")
	}
	if gd.MeanHops < 1 {
		return cfg, fmt.Errorf("repro: calibrated MeanHops = %v is below 1 (every route has at least one hop); re-run the calibration with more samples", gd.MeanHops)
	}
	if gd.MeanDegree <= 0 {
		return cfg, fmt.Errorf("repro: calibrated MeanDegree = %v is not positive; re-run the calibration with more samples", gd.MeanDegree)
	}
	cfg.PartitionRate = gd.PartitionRate
	cfg.MergeRate = gd.MergeRate
	cfg.MeanHops = gd.MeanHops
	cfg.MeanDegree = gd.MeanDegree
	return cfg, nil
}

// ApplyDynamics patches the calibrated group dynamics into a configuration,
// keeping the configuration's MeanHops/MeanDegree when the calibrated
// values are out of the model's range.
//
// Deprecated: use ApplyDynamicsChecked, which reports out-of-range
// calibration instead of silently half-applying it.
func ApplyDynamics(cfg Config, gd *GroupDynamics) Config {
	cfg.PartitionRate = gd.PartitionRate
	cfg.MergeRate = gd.MergeRate
	if gd.MeanHops >= 1 {
		cfg.MeanHops = gd.MeanHops
	}
	if gd.MeanDegree > 0 {
		cfg.MeanDegree = gd.MeanDegree
	}
	return cfg
}

// --- Figure regeneration ---

// Figure is a regenerated evaluation figure (printable series).
type Figure = experiments.Figure

// FigureCheck is the qualitative-shape validation of one figure.
type FigureCheck = experiments.CheckResult

// Figures regenerates all four evaluation figures for a configuration.
func Figures(cfg Config) ([]*Figure, error) { return experiments.All(cfg) }

// Figure2 regenerates "Effect of m on MTTSF and Optimal TIDS".
func Figure2(cfg Config) (*Figure, error) { return experiments.Figure2(cfg) }

// Figure3 regenerates "Effect of m on Ĉtotal and Optimal TIDS".
func Figure3(cfg Config) (*Figure, error) { return experiments.Figure3(cfg) }

// Figure4 regenerates "Effect of TIDS on MTTSF by detection function".
func Figure4(cfg Config) (*Figure, error) { return experiments.Figure4(cfg) }

// Figure5 regenerates "Effect of TIDS on Ĉtotal by detection function".
func Figure5(cfg Config) (*Figure, error) { return experiments.Figure5(cfg) }

// CheckFigures validates the regenerated figures against the paper's
// qualitative claims.
func CheckFigures(figs []*Figure) []FigureCheck { return experiments.CheckAll(figs) }

// BaselineTable compares no-IDS, host-based IDS (m=1), and voting IDS on
// MTTSF and Ĉtotal.
type BaselineTable = experiments.BaselineTable

// Baselines evaluates the three protocol variants for a configuration.
func Baselines(cfg Config) (*BaselineTable, error) { return experiments.Baselines(cfg) }
