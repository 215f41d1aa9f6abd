package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// fullGridFrontier computes the reference frontier by evaluating every
// grid point through e (so adaptive and reference share one solver path
// and cache — floats are bit-identical where both evaluated).
func fullGridFrontier(t *testing.T, e *Engine, cfg core.Config, space core.DesignSpace) []core.DesignPoint {
	t.Helper()
	cfgs := space.Enumerate(cfg)
	results, err := e.EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]core.DesignPoint, len(results))
	for i, res := range results {
		points[i] = core.DesignPoint{
			M: cfgs[i].M, TIDS: cfgs[i].TIDS, Detection: cfgs[i].Detection,
			MTTSF: res.MTTSF, Ctotal: res.Ctotal,
		}
	}
	return core.ParetoFrontier(points)
}

func sameFrontier(a, b []core.DesignPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAdaptiveFrontierExact(t *testing.T) {
	cfg := testConfig()
	space := core.DefaultDesignSpace()
	e := New(Options{})

	var revs []FrontierRevision
	frontier, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{Space: space}, func(rev FrontierRevision) error {
		revs = append(revs, rev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := space.Size()
	if evals >= total {
		t.Errorf("adaptive loop paid %d evals on a %d-point grid: no saving", evals, total)
	}
	t.Logf("adaptive: %d/%d evals (%.0f%%), frontier size %d",
		evals, total, 100*float64(evals)/float64(total), len(frontier))

	want := fullGridFrontier(t, e, cfg, space)
	if !sameFrontier(frontier, want) {
		t.Fatalf("adaptive frontier diverges from full grid:\n got %v\nwant %v", frontier, want)
	}

	// Revision stream invariants: generations strictly increase, the
	// hypervolume never shrinks, and the terminal revision carries the
	// returned frontier.
	if len(revs) < 2 {
		t.Fatalf("only %d revisions emitted", len(revs))
	}
	last := revs[len(revs)-1]
	if !last.Done || !sameFrontier(last.Frontier, frontier) || last.Evals != evals {
		t.Errorf("terminal revision %+v does not match returned state", last)
	}
	prevGen, prevHV := 0, 0.0
	for _, rev := range revs[:len(revs)-1] {
		if rev.Done || rev.Point == nil {
			t.Fatalf("non-terminal revision without point: %+v", rev)
		}
		if rev.Generation <= prevGen {
			t.Errorf("generation went %d -> %d", prevGen, rev.Generation)
		}
		if rev.Hypervolume < prevHV-1e-9 {
			t.Errorf("hypervolume shrank %v -> %v", prevHV, rev.Hypervolume)
		}
		prevGen, prevHV = rev.Generation, rev.Hypervolume
	}
}

func TestAdaptiveFrontierBudget(t *testing.T) {
	cfg := testConfig()
	e := New(Options{})
	budget := 5
	frontier, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{EvalBudget: budget}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if evals > budget {
		t.Errorf("evals = %d exceeds budget %d", evals, budget)
	}
	if len(frontier) == 0 {
		t.Error("budgeted run returned an empty frontier")
	}
}

func TestAdaptiveFrontierSeededByCache(t *testing.T) {
	cfg := testConfig()
	space := core.DefaultDesignSpace()
	e := New(Options{})
	want := fullGridFrontier(t, e, cfg, space) // warms the cache fully

	frontier, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{Space: space}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Errorf("fully cached run charged %d evals, want 0", evals)
	}
	if !sameFrontier(frontier, want) {
		t.Errorf("cache-seeded frontier diverges from full grid")
	}
}

func TestAdaptiveFrontierCancel(t *testing.T) {
	cfg := testConfig()
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.AdaptiveFrontier(ctx, cfg, FrontierOptions{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAdaptiveFrontierEmitAbort(t *testing.T) {
	cfg := testConfig()
	e := New(Options{})
	sentinel := errors.New("consumer gone")
	evalsBefore := e.Stats().Evals
	_, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{}, func(FrontierRevision) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	// The loop must stop at the next point boundary: at most the one
	// evaluation whose revision the consumer rejected was charged, plus
	// the anchor it takes to reach a first revision.
	if charged := e.Stats().Evals - evalsBefore; charged > uint64(evals)+1 {
		t.Errorf("%d solves ran after the consumer aborted (reported %d)", charged, evals)
	}
}

func TestAdaptiveFrontierGate(t *testing.T) {
	cfg := testConfig()
	e := New(Options{})
	acquired := 0
	gate := func(ctx context.Context) (func(), error) {
		acquired++
		return func() {}, nil
	}
	_, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{EvalBudget: 4, Gate: gate}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acquired != evals {
		t.Errorf("gate acquired %d times for %d evals", acquired, evals)
	}
}

// TestAdaptiveFrontierSeededExact is the warm-cache soundness net: an
// arbitrary subset of the grid pre-evaluated into the cache must never
// change the converged frontier, only cheapen it. Partial seeding is the
// adversarial case for the surrogate — it hands the bound rules done-sets
// (isolated far columns, wide gaps around an argmax) that no cold
// trajectory produces, which is exactly how past unsound shortcuts
// (interior-bracket claims, compound ratio steps, cross-detection ratio
// transfer) were caught. Misses here mean a bound rule claims more than
// the model guarantees; tighten the rule, not this test.
func TestAdaptiveFrontierSeededExact(t *testing.T) {
	dense := []float64{5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480, 600, 900, 1200}
	for _, n := range []int{12, 30} {
		for gi, grid := range [][]float64{nil, dense} {
			for trial := 0; trial < 5; trial++ {
				cfg := testConfig()
				cfg.N = n
				space := core.DefaultDesignSpace()
				if grid != nil {
					space.TIDSGrid = grid
				}
				rng := rand.New(rand.NewSource(int64(1000*n + 100*gi + trial)))
				frac := rng.Float64() * 0.8
				var seed []core.Config
				for _, c := range space.Enumerate(cfg) {
					if rng.Float64() < frac {
						seed = append(seed, c)
					}
				}
				e := New(Options{})
				if len(seed) > 0 {
					if _, err := e.EvalBatch(seed); err != nil {
						t.Fatal(err)
					}
				}
				frontier, evals, err := e.AdaptiveFrontier(context.Background(), cfg, FrontierOptions{Space: space}, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := fullGridFrontier(t, e, cfg, space)
				if !sameFrontier(frontier, want) {
					t.Errorf("N=%d grid=%d trial=%d (seeded %d/%d): frontier diverged from full grid\n got %v\nwant %v",
						n, gi, trial, len(seed), space.Size(), frontier, want)
				}
				if evals > space.Size()-len(seed) {
					t.Errorf("N=%d grid=%d trial=%d: charged %d fresh evals with only %d unseeded points",
						n, gi, trial, evals, space.Size()-len(seed))
				}
			}
		}
	}
}

// TestAdaptiveFrontierPooledMatchesFresh mirrors the frontier_cold
// benchmark's check on the pooled miss path: nine bases (N 20, 25 and 30,
// LambdaC and P1 each scaled by 2^U(-1/2, 1/2)) run through
// AdaptiveFrontier over frontier_cold's 192-point space, all on one
// long-lived engine. Every frontier must equal, under reflect.DeepEqual, a
// fresh engine's for the same base, with the same eval count, and the
// long-lived engine explores each of the three families once.
func TestAdaptiveFrontierPooledMatchesFresh(t *testing.T) {
	space := core.DesignSpace{
		Ms:         []int{3, 5, 7, 9},
		TIDSGrid:   []float64{5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480, 600, 900, 1200},
		Detections: shapes.Kinds(),
	}
	r := rand.New(rand.NewSource(26))
	var bases []core.Config
	for k := 0; k < 3; k++ {
		for _, n := range []int{20, 25, 30} {
			c := core.DefaultConfig()
			c.N = n
			c.LambdaC *= math.Exp2(r.Float64() - 0.5)
			c.P1 *= math.Exp2(r.Float64() - 0.5)
			c.Solver = ctmc.BackendAuto
			bases = append(bases, c)
		}
	}
	long := New(Options{})
	explored := exploreCalls()
	type run struct {
		frontier []core.DesignPoint
		evals    int
	}
	pooled := make([]run, len(bases))
	for i, base := range bases {
		f, n, err := long.AdaptiveFrontier(context.Background(), base, FrontierOptions{Space: space}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pooled[i] = run{f, n}
	}
	if n := exploreCalls() - explored; obs.Armed() && n > 3 {
		t.Errorf("long-lived engine explored %d times for %d frontiers over 3 families, want at most 3", n, len(bases))
	}
	for i, base := range bases {
		f, n, err := New(Options{}).AdaptiveFrontier(context.Background(), base, FrontierOptions{Space: space}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled[i].frontier, f) {
			t.Errorf("base %d (N=%d): pooled frontier\n%+v\nfresh engine\n%+v", i, base.N, pooled[i].frontier, f)
		}
		if pooled[i].evals != n {
			t.Errorf("base %d (N=%d): %d evals on the long-lived engine, %d on a fresh one", i, base.N, pooled[i].evals, n)
		}
	}
}
