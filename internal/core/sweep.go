package core

import (
	"fmt"

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

// SweepTIDS evaluates the model at every TIDS in grid. The points fan out
// over the default evaluator's Eval under its worker bound (RunBatch).
// Every point of a TIDS sweep shares one reachability graph, so with the
// memoizing engine installed the first miss explores it and every later
// miss patches a session of that family and re-solves; points already
// evaluated — by this sweep or any earlier one — are served from its
// cache. Direct, the memoization-free oracle, prepares every point in
// full. WithContext makes the sweep cancelable between points;
// WithWarmStart and WithIncremental are accepted for compatibility and
// change nothing.
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

// evalSweep evaluates the points of a grid driver through the default
// evaluator's Eval under its worker bound, checking the option context
// before each point. Per-point errors are joined like RunBatch's.
func evalSweep(o sweepConfig, cfgs []Config) ([]*Result, error) {
	ev := DefaultEvaluator()
	results, err := RunBatch(cfgs, ev.WorkerBound(), func(cfg Config) (*Result, error) {
		if err := o.ctxErr(); err != nil {
			return nil, err
		}
		return ev.Eval(cfg)
	})
	if cerr := o.ctxErr(); cerr != nil {
		return nil, cerr
	}
	return results, err
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
