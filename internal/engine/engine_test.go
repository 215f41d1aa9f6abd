package engine

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ctmc"
	"repro/internal/shapes"
)

// testConfig returns a small, fast configuration.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.N = 12
	return cfg
}

// TestSingleSolvePerEval asserts the tentpole invariant: one model
// evaluation performs exactly one transient linear solve (MTTSF, cost
// accumulation, and the absorption split all derive from the same
// ctmc.Solution).
func TestSingleSolvePerEval(t *testing.T) {
	cfg := testConfig()
	before := ctmc.SolveCount()
	if _, err := core.Analyze(cfg); err != nil {
		t.Fatal(err)
	}
	if got := ctmc.SolveCount() - before; got != 1 {
		t.Fatalf("core.Analyze performed %d transient solves, want exactly 1", got)
	}

	// A cached engine evaluation performs zero additional solves.
	e := New(Options{})
	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	before = ctmc.SolveCount()
	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	if got := ctmc.SolveCount() - before; got != 0 {
		t.Fatalf("cached Eval performed %d solves, want 0", got)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()

	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Evals != 1 {
		t.Fatalf("after first Eval: %+v, want 0 hits / 1 miss / 1 eval", st)
	}

	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evals != 1 {
		t.Fatalf("after repeat Eval: %+v, want 1 hit / 1 miss / 1 eval", st)
	}

	other := cfg
	other.TIDS = cfg.TIDS * 2
	if _, err := e.Eval(other); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evals != 2 || st.Entries != 2 {
		t.Fatalf("after distinct Eval: %+v, want 1 hit / 2 misses / 2 evals / 2 entries", st)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{CacheSize: 2})
	base := testConfig()
	for _, tids := range []float64{30, 60, 120} {
		c := base
		c.TIDS = tids
		if _, err := e.Eval(c); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 entries", st)
	}
	// The oldest entry (TIDS=30) was evicted: evaluating it again is a miss.
	c := base
	c.TIDS = 30
	if _, err := e.Eval(c); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (evicted entry re-evaluated)", st.Misses)
	}
}

// TestFingerprintCanonicalization asserts that Configs differing only in
// ignored/derived fields share one cache entry.
func TestFingerprintCanonicalization(t *testing.T) {
	base := testConfig()

	// MaxStates 0 is the same exploration as the explicit default bound.
	explicit := base
	explicit.MaxStates = core.DefaultMaxStates
	if Fingerprint(base) != Fingerprint(explicit) {
		t.Error("MaxStates 0 and explicit default produce different fingerprints")
	}

	// A nil Cost and an explicit Cost equal to the patched defaults are
	// the same cost model.
	params := base.EffectiveCost()
	spelled := base
	spelled.Cost = &params
	if Fingerprint(base) != Fingerprint(spelled) {
		t.Error("nil Cost and explicit default-equivalent Cost produce different fingerprints")
	}

	// Both hit the same engine entry, and each caller gets its own Config
	// spelling back (no aliasing into the cache).
	e := New(Options{})
	if _, err := e.Eval(base); err != nil {
		t.Fatal(err)
	}
	resExplicit, err := e.Eval(explicit)
	if err != nil {
		t.Fatal(err)
	}
	resSpelled, err := e.Eval(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evals != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 1 eval and 2 hits across canonical variants", st)
	}
	if resExplicit.Config.MaxStates != core.DefaultMaxStates {
		t.Errorf("hit returned MaxStates %d, want the caller's %d", resExplicit.Config.MaxStates, core.DefaultMaxStates)
	}
	if resSpelled.Config.Cost != &params {
		t.Error("hit returned a Cost pointer that is not the caller's own")
	}

	// And a genuinely different config must not collide.
	different := base
	different.P1 = base.P1 * 1.0000001
	if Fingerprint(base) == Fingerprint(different) {
		t.Error("distinct P1 values collide")
	}
}

// TestFingerprintCoversConfig pins the struct shapes the fingerprint
// serializes: adding a field to core.Config or cost.Params must be
// accompanied by a fingerprint update (then bump the counts here). Of the
// 25 Config fields, 23 are serialized; Parallelism and Solver are excluded
// by design (see TestFingerprintIgnoresParallelism and
// TestFingerprintIgnoresSolver).
func TestFingerprintCoversConfig(t *testing.T) {
	if n := reflect.TypeOf(core.Config{}).NumField(); n != 25 {
		t.Errorf("core.Config has %d fields; Fingerprint serializes 23 of 25 — update fingerprint.go and this count", n)
	}
	if n := reflect.TypeOf(cost.Params{}).NumField(); n != 13 {
		t.Errorf("cost.Params has %d fields; Fingerprint serializes 13 — update fingerprint.go and this count", n)
	}
}

// TestFingerprintIgnoresParallelism pins that exploration parallelism is
// an execution policy, not a model parameter: configurations differing
// only in Parallelism evaluate byte-identically (the parallel explorer is
// deterministically renumbered), so they must share one cache entry.
func TestFingerprintIgnoresParallelism(t *testing.T) {
	base := testConfig()
	par := base
	par.Parallelism = 8
	if Fingerprint(base) != Fingerprint(par) {
		t.Fatal("Parallelism changed the fingerprint; sequential and parallel evaluations would not share cache entries")
	}
	e := New(Options{})
	if _, err := e.Eval(base); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(par); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evals != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want the parallel spelling served from the sequential entry", st)
	}
}

// TestFingerprintIgnoresSolver pins that the linear-solver backend is an
// execution policy, not a model parameter: every backend converges to the
// same 1e-12 relative residual, so configurations differing only in Solver
// evaluate tolerance-identically (the cross-backend equivalence tests in
// core pin that) and must share one cache entry.
func TestFingerprintIgnoresSolver(t *testing.T) {
	base := testConfig()
	for _, name := range ctmc.SolverBackendNames() {
		alt := base
		alt.Solver = name
		if Fingerprint(base) != Fingerprint(alt) {
			t.Fatalf("Solver=%q changed the fingerprint; solver spellings would not share cache entries", name)
		}
	}
	e := New(Options{})
	if _, err := e.Eval(base); err != nil {
		t.Fatal(err)
	}
	ilu := base
	ilu.Solver = ctmc.BackendILUBiCGSTAB
	if _, err := e.Eval(ilu); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evals != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want the ilu-bicgstab spelling served from the default entry", st)
	}
}

// TestConcurrentBatchDeterminism runs overlapping batches from many
// goroutines and asserts every caller observes identical results while the
// engine evaluates each unique point exactly once.
func TestConcurrentBatchDeterminism(t *testing.T) {
	e := New(Options{})
	base := testConfig()
	grid := []float64{30, 60, 120, 240, 60, 120, 30, 240} // duplicates on purpose
	cfgs := make([]core.Config, len(grid))
	for i, tids := range grid {
		cfgs[i] = base
		cfgs[i].TIDS = tids
	}

	const callers = 8
	results := make([][]*core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = e.EvalBatch(cfgs)
		}(c)
	}
	wg.Wait()

	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i := range cfgs {
			if results[c][i].MTTSF != results[0][i].MTTSF || results[c][i].Ctotal != results[0][i].Ctotal {
				t.Fatalf("caller %d point %d diverges: MTTSF %v vs %v", c, i,
					results[c][i].MTTSF, results[0][i].MTTSF)
			}
			if results[c][i].Config.TIDS != grid[i] {
				t.Fatalf("caller %d point %d: result for TIDS=%v, want %v", c, i,
					results[c][i].Config.TIDS, grid[i])
			}
		}
	}
	if st := e.Stats(); st.Evals != 4 {
		t.Fatalf("engine performed %d evals, want 4 (unique grid points)", st.Evals)
	}
}

// TestEngineMatchesDirect asserts the memoized path is numerically
// equivalent to direct core.Analyze to 1e-12 relative tolerance.
func TestEngineMatchesDirect(t *testing.T) {
	e := New(Options{})
	base := testConfig()
	for _, tids := range []float64{15, 120, 600} {
		for _, kind := range shapes.Kinds() {
			cfg := base
			cfg.TIDS = tids
			cfg.Detection = kind
			want, err := core.Direct{}.Eval(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: once computed, once from cache.
			for pass := 0; pass < 2; pass++ {
				got, err := e.Eval(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkClose(t, "MTTSF", got.MTTSF, want.MTTSF)
				checkClose(t, "Ctotal", got.Ctotal, want.Ctotal)
				checkClose(t, "ProbC1", got.ProbC1, want.ProbC1)
				checkClose(t, "ProbC2", got.ProbC2, want.ProbC2)
			}
		}
	}
}

func checkClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if got == want {
		return
	}
	denom := math.Max(math.Abs(want), 1)
	if math.Abs(got-want)/denom > 1e-12 {
		t.Fatalf("%s: engine %v vs direct %v (rel err %v)", name, got, want,
			math.Abs(got-want)/denom)
	}
}

// TestEvalBatchErrorJoin asserts per-point errors surface with context and
// do not poison the cache.
func TestEvalBatchErrorJoin(t *testing.T) {
	e := New(Options{})
	good := testConfig()
	bad := testConfig()
	bad.N = 1 // fails Validate
	results, err := e.EvalBatch([]core.Config{good, bad})
	if err == nil {
		t.Fatal("batch with invalid point returned nil error")
	}
	if results[0] == nil {
		t.Error("valid point missing from partial results")
	}
	// The failing point is not cached; a corrected config evaluates.
	if _, err := e.Eval(good); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("stats %+v, want the good point served from cache", st)
	}
}

// TestResultIsolation asserts callers get private copies: mutating a
// returned Result must not corrupt the cache.
func TestResultIsolation(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()
	first, err := e.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mttsf := first.MTTSF
	first.MTTSF = -1
	second, err := e.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.MTTSF != mttsf {
		t.Fatalf("cache corrupted by caller mutation: MTTSF %v, want %v", second.MTTSF, mttsf)
	}
}

// TestPreparedReuse asserts Survival reuses the cached reachability graph
// built by Eval (no second exploration) and stays deterministic per seed.
func TestPreparedReuse(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()
	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	p1, err := e.Prepared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Prepared rebuilt the model for a cached configuration")
	}
	a, err := e.Survival(cfg, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Survival(cfg, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("survival sampling is not deterministic for a fixed seed")
		}
	}
}

// TestWarmSweepPopulatesResultCache pins that a sweep under the
// WithWarmStart option, which selects nothing any more, still feeds the
// engine's Result cache through Eval: the points it computes are later
// served as ordinary hits, whatever the family store holds.
func TestWarmSweepPopulatesResultCache(t *testing.T) {
	e := New(Options{})
	prev := core.SetDefaultEvaluator(e)
	defer core.SetDefaultEvaluator(prev)

	cfg := testConfig()
	grid := []float64{60, 120}
	points, err := core.SweepTIDS(cfg, grid, core.WithWarmStart())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Entries != len(grid) || st.Evals != uint64(len(grid)) {
		t.Fatalf("stats %+v after warm sweep, want %d cached results / evals", st, len(grid))
	}

	c := cfg
	c.TIDS = grid[0]
	res, err := e.Eval(c)
	if err != nil {
		t.Fatal(err)
	}
	if after := e.Stats(); after.Hits != st.Hits+1 || after.Evals != st.Evals {
		t.Fatalf("stats %+v, want the warm-computed point served as a cache hit", after)
	}
	if res.MTTSF != points[0].Result.MTTSF {
		t.Fatalf("cached MTTSF %v, warm sweep computed %v", res.MTTSF, points[0].Result.MTTSF)
	}

	// A repeat warm sweep over cached points rebuilds and re-solves
	// nothing: every point is a Result-cache hit.
	solves := ctmc.SolveCount()
	if _, err := core.SweepTIDS(cfg, grid, core.WithWarmStart()); err != nil {
		t.Fatal(err)
	}
	if got := ctmc.SolveCount() - solves; got != 0 {
		t.Fatalf("repeat warm sweep performed %d solves, want 0 (all points result-cached)", got)
	}
}
