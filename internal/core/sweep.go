package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/shapes"
)

// PaperTIDSGrid is the detection-interval grid of Figures 2-5 (seconds).
var PaperTIDSGrid = []float64{5, 15, 30, 60, 120, 240, 480, 600, 1200}

// PaperMGrid is the vote-participant grid of Figures 2-3.
var PaperMGrid = []int{3, 5, 7, 9}

// SweepPoint pairs a TIDS value with its evaluation.
type SweepPoint struct {
	TIDS   float64
	Result *Result
}

// SweepTIDS evaluates the model at every TIDS in grid. The points run
// through the incremental sweep driver (EvalIncremental) on the default
// evaluator: the grid splits into contiguous chunks — one per evaluator
// worker, but none shorter than minChunkPoints — the chunks run in
// parallel, and within a chunk the first miss
// pays a full prepare while every later point re-rates the shared graph,
// patches the generator in place and re-solves. With the memoizing engine
// installed, points already evaluated — by this sweep or any earlier one
// — are served from its cache. WithContext makes the sweep cancelable
// between points; WithWarmStart and WithIncremental are accepted for
// compatibility and change nothing.
func SweepTIDS(cfg Config, grid []float64, opts ...SweepOption) ([]SweepPoint, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("core: empty TIDS grid")
	}
	sp := obs.StartStage(obs.StageSweep)
	defer sp.End()
	cfgs := make([]Config, len(grid))
	for i, tids := range grid {
		cfgs[i] = cfg
		cfgs[i].TIDS = tids
	}
	results, err := evalSweep(applySweepOptions(opts), cfgs)
	if err != nil {
		return nil, fmt.Errorf("core: TIDS sweep: %w", err)
	}
	points := make([]SweepPoint, len(grid))
	for i, tids := range grid {
		points[i] = SweepPoint{TIDS: tids, Result: results[i]}
	}
	return points, nil
}

// SweepOpts is the legacy options struct of SweepTIDSOpts and
// ExploreDesignSpaceOpts. Every sweep now takes the parallel incremental
// path, so neither field selects anything; both are kept so existing
// callers compile.
type SweepOpts struct {
	// WarmStart once chained the grid points through a warm-started,
	// sequential solver session. It has no effect.
	WarmStart bool
	// Incremental once routed the grid points through the sequential
	// patch+re-solve path, which every sweep now takes in parallel
	// chunks. It has no effect.
	Incremental bool
}

// SweepTIDSOpts is SweepTIDS with an explicit options struct, kept for
// callers predating the functional options. It behaves exactly like
// SweepTIDS.
func SweepTIDSOpts(cfg Config, grid []float64, _ SweepOpts) ([]SweepPoint, error) {
	return SweepTIDS(cfg, grid)
}

// evalSweep evaluates the points of a grid driver through the default
// evaluator's incremental path (EvalIncremental) under its worker bound.
// Per-point errors are joined like RunBatch's.
func evalSweep(o sweepConfig, cfgs []Config) ([]*Result, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ev := DefaultEvaluator()
	results, errs := EvalIncremental(ctx, ev, cfgs, ev.WorkerBound())
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	return results, joinPointErrors(cfgs, errs)
}

// minChunkPoints is the shortest chunk EvalIncremental cuts a group into.
// Every chunk pays one full prepare where a single sequential walk would
// patch, and a full prepare costs about four patched points (measured at N
// 40-60 over a 24-point TIDS grid: ~4.5 ms against ~1.2 ms of CPU), so each
// cut adds about three patched points' worth of CPU. Chunks of at least
// six points keep that overhead under half of the patched work they carry:
// a group costs at most ~1.5x the CPU of one sequential walk, whatever the
// worker count, and still far less than a full prepare per point.
const minChunkPoints = 6

// cutChunks cuts the batch indices of one structural group into
// min(workers, len(idx)/minChunkPoints) contiguous chunks of near-equal
// length, and never fewer than one.
func cutChunks(idx []int, workers int) [][]int {
	k := max(1, min(workers, len(idx)/minChunkPoints))
	chunks := make([][]int, k)
	for c := range chunks {
		chunks[c] = idx[c*len(idx)/k : (c+1)*len(idx)/k]
	}
	return chunks
}

// EvalIncremental evaluates cfgs through ev on the incremental re-solve
// path, in parallel. The points are grouped by StructuralKey (groups in
// first-seen order, points in batch order within a group); each group is
// cut into at most workers contiguous chunks of at least minChunkPoints
// points (a shorter group is one chunk), and the chunks run over at most
// workers goroutines (0 means GOMAXPROCS). Each chunk walks its points
// through one DeltaSession: the first miss pays a full prepare, later
// rate-only points patch and re-solve, and a structural delta or a hard
// failure re-anchors the session. Results are in batch order; errs[i] is
// point i's error, ctx.Err() for every point not started once ctx is done
// (ctx is checked before each point).
func EvalIncremental(ctx context.Context, ev Evaluator, cfgs []Config, workers int) (results []*Result, errs []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var order []string
	groups := make(map[string][]int)
	for i, cfg := range cfgs {
		key := StructuralKey(cfg)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var chunks [][]int
	for _, key := range order {
		chunks = append(chunks, cutChunks(groups[key], workers)...)
	}
	results = make([]*Result, len(cfgs))
	errs = make([]error, len(cfgs))
	ForEachIndexed(len(chunks), workers, func(c int) {
		s := NewDeltaSession(ev)
		for _, i := range chunks[c] {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = s.Eval(ctx, cfgs[i])
		}
	})
	return results, errs
}

// DeltaSession walks points of one structural family through a single
// PreparedDelta chain on an Evaluator: the first miss pays a full prepare
// (ev.Prepared, so the engine caches it) and anchors the chain, every
// later rate-only miss patches and re-solves in place, and a structural
// delta or a hard patched-solve failure falls back to the full path and
// re-anchors. Cache hits cost nothing and do not advance the chain. Not
// safe for concurrent use.
type DeltaSession struct {
	ev Evaluator
	pd *PreparedDelta
}

// NewDeltaSession starts an empty session on ev.
func NewDeltaSession(ev Evaluator) *DeltaSession { return &DeltaSession{ev: ev} }

// Eval evaluates one point through the session, returning ctx.Err()
// without starting when ctx is already done. A point once started runs to
// completion: solver kernels are not preemptible.
func (s *DeltaSession) Eval(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.ev.EvalWith(cfg, func() (*Prepared, error) {
		if s.pd != nil {
			if p, err := s.pd.Prepared(cfg); err == nil {
				return p, nil
			}
			s.pd = nil
		}
		p, err := s.ev.Prepared(cfg)
		if err != nil {
			return nil, err
		}
		if pd, err := NewPreparedDelta(p); err == nil {
			s.pd = pd
		}
		return p, nil
	})
}

// Optimum describes the best grid point found by a sweep.
type Optimum struct {
	TIDS   float64
	Result *Result
	Points []SweepPoint
}

// OptimalTIDSForMTTSF returns the grid point maximizing MTTSF, the paper's
// primary design question ("identify the optimal intrusion detection
// interval under which the MTTSF metric is maximized").
func OptimalTIDSForMTTSF(cfg Config, grid []float64) (*Optimum, error) {
	points, err := SweepTIDS(cfg, grid)
	if err != nil {
		return nil, err
	}
	best := 0
	for i := range points {
		if points[i].Result.MTTSF > points[best].Result.MTTSF {
			best = i
		}
	}
	return &Optimum{TIDS: points[best].TIDS, Result: points[best].Result, Points: points}, nil
}

// OptimalTIDSForCost returns the grid point minimizing Ĉtotal.
func OptimalTIDSForCost(cfg Config, grid []float64) (*Optimum, error) {
	points, err := SweepTIDS(cfg, grid)
	if err != nil {
		return nil, err
	}
	best := 0
	for i := range points {
		if points[i].Result.Ctotal < points[best].Result.Ctotal {
			best = i
		}
	}
	return &Optimum{TIDS: points[best].TIDS, Result: points[best].Result, Points: points}, nil
}

// ConstrainedOptimum maximizes MTTSF subject to a communication budget
// Ĉtotal <= budget (hop·bits/s): the paper's "maximize MTTSF while
// satisfying imposed performance requirements in terms of overall
// communication cost". It returns an error when no grid point satisfies
// the budget.
func ConstrainedOptimum(cfg Config, grid []float64, budget float64) (*Optimum, error) {
	points, err := SweepTIDS(cfg, grid)
	if err != nil {
		return nil, err
	}
	best := -1
	for i := range points {
		if points[i].Result.Ctotal > budget {
			continue
		}
		if best == -1 || points[i].Result.MTTSF > points[best].Result.MTTSF {
			best = i
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("core: no TIDS on the grid meets the cost budget %v hop·bits/s", budget)
	}
	return &Optimum{TIDS: points[best].TIDS, Result: points[best].Result, Points: points}, nil
}

// DetectionComparison evaluates the three detection functions over a TIDS
// grid for a fixed attacker, producing the series of Figures 4 and 5.
type DetectionComparison struct {
	Attacker shapes.Kind
	// Series maps detection kind to sweep points over the grid.
	Series map[shapes.Kind][]SweepPoint
}

// CompareDetections sweeps all three detection functions against the
// configured attacker.
func CompareDetections(cfg Config, grid []float64) (*DetectionComparison, error) {
	out := &DetectionComparison{
		Attacker: cfg.Attacker,
		Series:   make(map[shapes.Kind][]SweepPoint, 3),
	}
	for _, kind := range shapes.Kinds() {
		c := cfg
		c.Detection = kind
		points, err := SweepTIDS(c, grid)
		if err != nil {
			return nil, fmt.Errorf("core: detection %v: %w", kind, err)
		}
		out.Series[kind] = points
	}
	return out, nil
}

// BestDetection returns the detection kind and TIDS that maximize MTTSF
// against the configured attacker — the decision the adaptive protocol
// takes once ids.ClassifyAttacker has identified the attacker function.
func BestDetection(cfg Config, grid []float64) (shapes.Kind, float64, *Result, error) {
	cmp, err := CompareDetections(cfg, grid)
	if err != nil {
		return 0, 0, nil, err
	}
	var bestKind shapes.Kind
	var bestPoint *SweepPoint
	for _, kind := range shapes.Kinds() {
		for i := range cmp.Series[kind] {
			p := &cmp.Series[kind][i]
			if bestPoint == nil || p.Result.MTTSF > bestPoint.Result.MTTSF {
				bestPoint, bestKind = p, kind
			}
		}
	}
	return bestKind, bestPoint.TIDS, bestPoint.Result, nil
}
