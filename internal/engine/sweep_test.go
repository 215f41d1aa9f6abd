package engine

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// sweepProtocol is one IDS architecture of the sweep equivalence grid,
// with the vote-panel sizes it is swept at.
type sweepProtocol struct {
	name     string
	protocol core.Protocol
	ms       []int
}

// sweepProtocols covers voting, host-based (a one-node "panel") and
// cluster-head IDS.
var sweepProtocols = []sweepProtocol{
	{"voting", core.ProtocolVoting, []int{3, 9}},
	{"host-based", core.ProtocolVoting, []int{1}},
	{"cluster-head", core.ProtocolClusterHead, []int{3, 9}},
}

// sweepEvaluators are the Evaluators the sweep driver must give
// identical answers through: Direct (the unpatched oracle) at several
// worker bounds and fresh memoizing engines, which patch every miss after
// a family's first. patches reports whether a sweep through the evaluator
// patches all but one of its points (else it patches none).
func sweepEvaluators() []struct {
	name    string
	patches bool
	mk      func() core.Evaluator
} {
	return []struct {
		name    string
		patches bool
		mk      func() core.Evaluator
	}{
		{"direct-1", false, func() core.Evaluator { return core.Direct{Workers: 1} }},
		{"direct-4", false, func() core.Evaluator { return core.Direct{Workers: 4} }},
		{"engine-1", true, func() core.Evaluator { return New(Options{Workers: 1}) }},
		{"engine-4", true, func() core.Evaluator { return New(Options{Workers: 4}) }},
	}
}

// sameResult reports the first metric on which got and want differ by
// more than 1e-12 (relative for MTTSF and Ĉtotal, absolute for the
// failure split), or "" when they agree.
func sameResult(got, want *core.Result) string {
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	switch {
	case rel(got.MTTSF, want.MTTSF) > 1e-12:
		return fmt.Sprintf("MTTSF %v vs %v", got.MTTSF, want.MTTSF)
	case rel(got.Ctotal, want.Ctotal) > 1e-12:
		return fmt.Sprintf("Ctotal %v vs %v", got.Ctotal, want.Ctotal)
	case math.Abs(got.ProbC1-want.ProbC1) > 1e-12,
		math.Abs(got.ProbC2-want.ProbC2) > 1e-12,
		math.Abs(got.ProbDepleted-want.ProbDepleted) > 1e-12:
		return fmt.Sprintf("failure split (%v, %v, %v) vs (%v, %v, %v)",
			got.ProbC1, got.ProbC2, got.ProbDepleted, want.ProbC1, want.ProbC2, want.ProbDepleted)
	}
	return ""
}

// analyzeEach evaluates every configuration through its own full prepare.
func analyzeEach(t *testing.T, cfgs []core.Config) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(cfgs))
	for i, c := range cfgs {
		res, err := core.Analyze(c)
		if err != nil {
			t.Fatalf("Analyze(%+v): %v", c, err)
		}
		out[i] = res
	}
	return out
}

// TestSweepsMatchPerPointAnalyze is the sweep driver's independent oracle:
// SweepTIDS under all three option spellings and ExploreDesignSpace, run
// through Direct and through engines at 1 and 4 workers, must equal a full
// prepare per point (MTTSF, Ĉtotal and the failure split within 1e-12)
// over N in {20, 40, 60} for voting, host-based and cluster-head IDS. The
// solver is pinned to auto so full prepares and patched points both take
// the exact block-triangular solve under any REPRO_SOLVER.
func TestSweepsMatchPerPointAnalyze(t *testing.T) {
	grid := []float64{5, 10, 15, 30, 60, 120, 240, 480, 600, 900, 1000, 1200}
	spellings := []struct {
		name string
		opts []core.SweepOption
	}{
		{"default", nil},
		{"warm", []core.SweepOption{core.WithWarmStart()}},
		{"incremental", []core.SweepOption{core.WithIncremental()}},
	}
	for _, n := range []int{20, 40, 60} {
		for _, proto := range sweepProtocols {
			base := core.DefaultConfig()
			base.N = n
			base.Protocol = proto.protocol
			base.Solver = ctmc.BackendAuto
			for _, m := range proto.ms {
				cfg := base
				cfg.M = m
				cfgs := make([]core.Config, len(grid))
				for i, tids := range grid {
					cfgs[i] = cfg
					cfgs[i].TIDS = tids
				}
				want := analyzeEach(t, cfgs)
				for _, ev := range sweepEvaluators() {
					for _, sp := range spellings {
						prev := core.SetDefaultEvaluator(ev.mk())
						patched := ctmc.PatchedSolves()
						points, err := core.SweepTIDS(cfg, grid, sp.opts...)
						patched = ctmc.PatchedSolves() - patched
						core.SetDefaultEvaluator(prev)
						if err != nil {
							t.Fatalf("N=%d %s m=%d %s/%s: %v", n, proto.name, m, ev.name, sp.name, err)
						}
						for i := range grid {
							if d := sameResult(points[i].Result, want[i]); d != "" {
								t.Errorf("N=%d %s m=%d %s/%s TIDS=%v: %s", n, proto.name, m, ev.name, sp.name, grid[i], d)
							}
						}
						want := uint64(0)
						if ev.patches {
							want = uint64(len(grid) - 1)
						}
						if patched != want {
							t.Errorf("N=%d %s m=%d %s/%s: %d patched solves, want %d",
								n, proto.name, m, ev.name, sp.name, patched, want)
						}
					}
				}
			}

			space := core.DesignSpace{Ms: proto.ms, TIDSGrid: []float64{30, 480}, Detections: shapes.Kinds()}
			type key struct {
				m    int
				tids float64
				det  shapes.Kind
			}
			cfgs := space.Enumerate(base)
			wantRes := analyzeEach(t, cfgs)
			want := make(map[key]*core.Result, len(cfgs))
			for i, c := range cfgs {
				want[key{c.M, c.TIDS, c.Detection}] = wantRes[i]
			}
			for _, ev := range sweepEvaluators() {
				prev := core.SetDefaultEvaluator(ev.mk())
				points, err := core.ExploreDesignSpace(base, space)
				core.SetDefaultEvaluator(prev)
				if err != nil {
					t.Fatalf("N=%d %s %s design space: %v", n, proto.name, ev.name, err)
				}
				if len(points) != len(cfgs) {
					t.Fatalf("N=%d %s %s: %d design points, want %d", n, proto.name, ev.name, len(points), len(cfgs))
				}
				for _, p := range points {
					w := want[key{p.M, p.TIDS, p.Detection}]
					got := &core.Result{MTTSF: p.MTTSF, Ctotal: p.Ctotal,
						ProbC1: w.ProbC1, ProbC2: w.ProbC2, ProbDepleted: w.ProbDepleted}
					if d := sameResult(got, w); d != "" {
						t.Errorf("N=%d %s %s (m=%d TIDS=%v %v): %s", n, proto.name, ev.name, p.M, p.TIDS, p.Detection, d)
					}
				}
			}
		}
	}
}

// TestConcurrentSweepsShareAnchors runs several sweeps and a batch at once
// on one engine while other goroutines analyse the Prepared the family is
// anchored on. Run it under -race: a session must never
// write into a Prepared the engine shares, and every answer must still
// equal a full prepare per point.
func TestConcurrentSweepsShareAnchors(t *testing.T) {
	base := testConfig()
	base.Solver = ctmc.BackendAuto
	e := New(Options{Workers: 4})
	prev := core.SetDefaultEvaluator(e)
	defer core.SetDefaultEvaluator(prev)

	// Every grid shares one family, anchored on the Prepared of its first
	// point (TIDS=5): every session is cloned from it.
	const sweeps = 4
	grids := make([][]float64, sweeps)
	for g := range grids {
		x := float64(g)
		grids[g] = []float64{5, 10, 20, 30, 60 + x, 90, 120 + 2*x, 240, 480 + x, 600, 900, 1200}
	}
	anchorCfg := base
	anchorCfg.TIDS = 5
	anchor, err := e.Prepared(anchorCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(anchorCfg); err != nil {
		t.Fatal(err)
	}
	if sp := familyPool(e, anchorCfg); sp == nil || sp.anchor != anchor {
		t.Fatal("the family is not anchored on the Prepared of its first point")
	}
	wantAnchor, err := core.Analyze(anchorCfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < sweeps; g++ {
		wg.Add(2)
		go func(grid []float64) {
			defer wg.Done()
			points, err := core.SweepTIDS(base, grid)
			if err != nil {
				t.Error(err)
				return
			}
			for i, tids := range grid {
				c := base
				c.TIDS = tids
				want, err := core.Analyze(c)
				if err != nil {
					t.Error(err)
					return
				}
				if d := sameResult(points[i].Result, want); d != "" {
					t.Errorf("sweep TIDS=%v: %s", tids, d)
				}
			}
		}(grids[g])
		go func(seed int64) {
			defer wg.Done()
			res, err := anchor.Analyze()
			if err != nil {
				t.Error(err)
				return
			}
			if d := sameResult(res, wantAnchor); d != "" {
				t.Errorf("anchor: %s", d)
			}
			if _, err := anchor.ExpectedCounts(); err != nil {
				t.Error(err)
			}
			if _, err := anchor.Survival(20, seed); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfgs := make([]core.Config, 0, len(grids[sweeps-1]))
		for _, tids := range grids[sweeps-1] {
			c := base
			c.TIDS = tids
			cfgs = append(cfgs, c)
		}
		if _, err := e.EvalBatchContext(context.Background(), cfgs); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}

// chaosSeeds returns the fixed seed matrix the chaos tests run over; CI
// adds seeds through REPRO_CHAOS_SEED without editing the list.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds := []uint64{1, 2, 3}
	if s := os.Getenv("REPRO_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("REPRO_CHAOS_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestChunkedSweepUnderSolverChaos runs a sweep on a fresh engine under a
// seeded solver fault schedule: forced breakdowns and non-finite solutions
// on the primary rung of every full-prepare solve and on every patched
// solve. The degradation ladder must absorb the former, a point whose
// patched solve fails must fall back to its own full prepare, and every
// answer must match the fault-free sweep within 1e-9.
func TestChunkedSweepUnderSolverChaos(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	base := testConfig()
	grid := []float64{5, 10, 15, 30, 60, 120, 240, 360, 480, 600, 900, 1200}
	sweep := func() ([]core.SweepPoint, error) {
		prev := core.SetDefaultEvaluator(New(Options{Workers: 4}))
		defer core.SetDefaultEvaluator(prev)
		return core.SweepTIDS(base, grid)
	}
	want, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	var fired uint64
	armed := false
	for _, seed := range chaosSeeds(t) {
		faultinject.Enable(faultinject.Plan{Seed: seed, Rates: map[string]float64{
			faultinject.SolverBreakdown: 0.4,
			faultinject.SolverNonFinite: 0.3,
		}})
		armed = faultinject.Enabled() // false when built with repro_nofaults
		got, err := sweep()
		for _, n := range faultinject.FiredCounts() {
			fired += n
		}
		faultinject.Disable()
		if err != nil {
			t.Fatalf("seed %d: sweep under solver chaos failed: %v", seed, err)
		}
		for i := range want {
			w, g := want[i].Result, got[i].Result
			if d := math.Abs(g.MTTSF-w.MTTSF) / w.MTTSF; d > 1e-9 {
				t.Errorf("seed %d TIDS=%v: MTTSF %v vs fault-free %v", seed, grid[i], g.MTTSF, w.MTTSF)
			}
			if d := math.Abs(g.Ctotal-w.Ctotal) / w.Ctotal; d > 1e-9 {
				t.Errorf("seed %d TIDS=%v: Ctotal %v vs fault-free %v", seed, grid[i], g.Ctotal, w.Ctotal)
			}
		}
	}
	t.Logf("solver faults fired: %d", fired)
	if armed && fired == 0 {
		t.Error("no solver fault fired across the seed matrix")
	}
}

// TestSweepExploresOncePerFamily pins the one patch driver on a 24-point
// TIDS sweep through fresh engines at 1, 2 and 8 workers: the family's
// first miss explores, every other point patches a session cloned from
// its anchor (so the sweep explores exactly once whatever the worker
// count), and every answer equals a full prepare per point bit for bit.
func TestSweepExploresOncePerFamily(t *testing.T) {
	base := core.DefaultConfig()
	base.N = 30
	base.Solver = ctmc.BackendAuto
	grid := make([]float64, 24)
	for i := range grid {
		grid[i] = 5 * math.Pow(240, float64(i)/float64(len(grid)-1))
	}
	cfgs := make([]core.Config, len(grid))
	for i, tids := range grid {
		cfgs[i] = base
		cfgs[i].TIDS = tids
	}
	want := analyzeEach(t, cfgs)
	for _, workers := range []int{1, 2, 8} {
		prev := core.SetDefaultEvaluator(New(Options{Workers: workers}))
		explored, patched := exploreCalls(), ctmc.PatchedSolves()
		points, err := core.SweepTIDS(base, grid)
		explored, patched = exploreCalls()-explored, ctmc.PatchedSolves()-patched
		core.SetDefaultEvaluator(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range grid {
			if g, w := points[i].Result, want[i]; g.MTTSF != w.MTTSF || g.Ctotal != w.Ctotal ||
				g.ProbC1 != w.ProbC1 || g.ProbC2 != w.ProbC2 {
				t.Errorf("workers=%d TIDS=%v: got %+v, want %+v", workers, grid[i], g, w)
			}
		}
		if obs.Armed() && explored != 1 {
			t.Errorf("workers=%d: the sweep explored %d times, want 1", workers, explored)
		}
		if patched != uint64(len(grid)-1) {
			t.Errorf("workers=%d: %d patched solves, want %d", workers, patched, len(grid)-1)
		}
	}
}
