package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/shapes"
)

// sweepIters runs fn and returns the transient-solver iterations it spent.
func sweepIters(t *testing.T, fn func() ([]SweepPoint, error)) ([]SweepPoint, uint64) {
	t.Helper()
	before := ctmc.SolveIterations()
	points, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return points, ctmc.SolveIterations() - before
}

// analyzeEach evaluates every configuration through its own full prepare
// (no reuse between points) and returns the results with the
// transient-solver iterations they spent: the cold baseline the sweep
// drivers are measured against.
func analyzeEach(t *testing.T, cfgs []Config) ([]*Result, uint64) {
	t.Helper()
	before := ctmc.SolveIterations()
	out := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out, ctmc.SolveIterations() - before
}

// TestSweepTIDSWarmStart pins the sweep's reuse contract on the canonical
// TIDS sweep: identical results to a full prepare per point (every solve
// meets the same 1e-12 residual gate) while spending substantially fewer
// solver iterations — the acceptance bar is a >= 30% reduction, which the
// grid clears by an order of magnitude because every point after the
// first is patched onto the first point's graph and re-solved there.
func TestSweepTIDSWarmStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 20
	// Pin the iterative backend so the cold baseline pays iterations and
	// the assertion stays meaningful when the suite runs under a
	// REPRO_SOLVER matrix.
	cfg.Solver = ctmc.BackendSORCascade

	prev := SetDefaultEvaluator(Direct{Workers: 1})
	defer SetDefaultEvaluator(prev)

	cfgs := make([]Config, len(PaperTIDSGrid))
	for i, tids := range PaperTIDSGrid {
		cfgs[i] = cfg
		cfgs[i].TIDS = tids
	}
	cold, coldIters := analyzeEach(t, cfgs)
	warm, warmIters := sweepIters(t, func() ([]SweepPoint, error) {
		return SweepTIDSOpts(cfg, PaperTIDSGrid, SweepOpts{WarmStart: true})
	})

	if len(warm) != len(cold) {
		t.Fatalf("warm sweep returned %d points, cold %d", len(warm), len(cold))
	}
	for i, c := range cold {
		w := warm[i].Result
		if relDiff(c.MTTSF, w.MTTSF) > 1e-8 {
			t.Errorf("TIDS=%v: warm MTTSF %v vs cold %v", warm[i].TIDS, w.MTTSF, c.MTTSF)
		}
		if relDiff(c.Ctotal, w.Ctotal) > 1e-8 {
			t.Errorf("TIDS=%v: warm Ctotal %v vs cold %v", warm[i].TIDS, w.Ctotal, c.Ctotal)
		}
	}
	t.Logf("per-point Analyze: %d iterations; sweep: %d", coldIters, warmIters)
	if coldIters == 0 {
		t.Fatal("cold per-point evaluation recorded no solver iterations")
	}
	if warmIters > coldIters*7/10 {
		t.Errorf("warm sweep spent %d iterations, cold %d — want >= 30%% reduction", warmIters, coldIters)
	}
}

// TestExploreDesignSpaceWarmStart asserts the design-space driver returns
// the same point set as a full prepare per point (within solver tolerance)
// and reduces total iterations.
func TestExploreDesignSpaceWarmStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 12
	cfg.Solver = ctmc.BackendSORCascade // the cold baseline must pay iterations
	space := DesignSpace{
		Ms:         []int{3, 5},
		TIDSGrid:   []float64{30, 120, 480},
		Detections: []shapes.Kind{shapes.Linear},
	}

	prev := SetDefaultEvaluator(Direct{Workers: 1})
	defer SetDefaultEvaluator(prev)

	cfgs := space.Enumerate(cfg)
	coldRes, coldIters := analyzeEach(t, cfgs)
	cold := make([]DesignPoint, len(cfgs))
	for i, c := range cfgs {
		cold[i] = DesignPoint{M: c.M, TIDS: c.TIDS, Detection: c.Detection, MTTSF: coldRes[i].MTTSF, Ctotal: coldRes[i].Ctotal}
	}
	sort.Slice(cold, func(a, b int) bool { return cold[a].Ctotal < cold[b].Ctotal })

	before := ctmc.SolveIterations()
	warm, err := ExploreDesignSpaceOpts(cfg, space, SweepOpts{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	warmIters := ctmc.SolveIterations() - before

	if len(warm) != len(cold) {
		t.Fatalf("warm space has %d points, cold %d", len(warm), len(cold))
	}
	// Both are sorted by ascending Ctotal over the same grid.
	for i := range cold {
		if cold[i].M != warm[i].M || cold[i].TIDS != warm[i].TIDS || cold[i].Detection != warm[i].Detection {
			t.Fatalf("point %d: warm (m=%d TIDS=%v %v) vs cold (m=%d TIDS=%v %v)",
				i, warm[i].M, warm[i].TIDS, warm[i].Detection, cold[i].M, cold[i].TIDS, cold[i].Detection)
		}
		if relDiff(cold[i].MTTSF, warm[i].MTTSF) > 1e-8 {
			t.Errorf("point %d: warm MTTSF %v vs cold %v", i, warm[i].MTTSF, cold[i].MTTSF)
		}
	}
	if warmIters >= coldIters {
		t.Errorf("warm design space spent %d iterations, cold %d — reuse bought nothing", warmIters, coldIters)
	}
}

// TestSolveFromExactGuess pins the mechanism at the ctmc layer: handing
// the solver its own converged solution must cost almost no iterations
// compared to the cold solve.
func TestSolveFromExactGuess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 20
	cfg.Solver = ctmc.BackendSORCascade // iteration-ratio bar is SOR-specific
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}

	before := ctmc.SolveIterations()
	sol, err := p.Chain.Solve(p.Graph.Initial)
	if err != nil {
		t.Fatal(err)
	}
	coldIters := ctmc.SolveIterations() - before

	before = ctmc.SolveIterations()
	warmSol, err := p.Chain.SolveFrom(p.Graph.Initial, sol.SojournTimes())
	if err != nil {
		t.Fatal(err)
	}
	warmIters := ctmc.SolveIterations() - before

	if warmIters*4 > coldIters {
		t.Errorf("exact-guess solve spent %d iterations vs cold %d", warmIters, coldIters)
	}
	cm, err := sol.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := warmSol.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(cm, wm) > 1e-9 {
		t.Errorf("warm MTTA %v vs cold %v", wm, cm)
	}

	// A warm vector of the wrong shape must be ignored, not crash or skew.
	bad, err := p.Chain.SolveFrom(p.Graph.Initial, make([]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bad.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(cm, bm) > 1e-9 {
		t.Errorf("mismatched warm vector skewed MTTA: %v vs %v", bm, cm)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
