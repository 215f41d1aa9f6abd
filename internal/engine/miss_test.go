package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// exploreCalls reads the explore stage's call count: one per full prepare,
// none for a patched re-solve.
func exploreCalls() uint64 {
	return obs.Default().Histogram("repro_stage_duration_seconds",
		"Wall time per pipeline stage (explore/assemble/solve/sweep/frontier).",
		obs.LatencyBuckets, obs.L("stage", obs.StageExplore.String())).Count()
}

// missGrid is the exactness grid of the pooled miss path: N ∈ {20,30,40}
// × both protocols × m ∈ {3,5,7,9} × the three detection shapes, each at a
// random TIDS, shuffled so consecutive misses hop between the six
// structural families. The solver is pinned to auto, the path core.Analyze
// takes whatever REPRO_SOLVER says.
func missGrid(seed uint64) []core.Config {
	r := rand.New(rand.NewPCG(seed, 19))
	var cfgs []core.Config
	for _, n := range []int{20, 30, 40} {
		for _, proto := range []core.Protocol{core.ProtocolVoting, core.ProtocolClusterHead} {
			for _, m := range []int{3, 5, 7, 9} {
				for _, kind := range shapes.Kinds() {
					c := core.DefaultConfig()
					c.N, c.Protocol, c.M, c.Detection = n, proto, m, kind
					c.TIDS = 5 * math.Pow(240, r.Float64()) // log-uniform over [5, 1200]
					c.Solver = ctmc.BackendAuto
					cfgs = append(cfgs, c)
				}
			}
		}
	}
	r.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}

// analyzeAll evaluates every configuration through its own full prepare.
func analyzeAll(t *testing.T, cfgs []core.Config) []*core.Result {
	t.Helper()
	want := make([]*core.Result, len(cfgs))
	for i, c := range cfgs {
		r, err := core.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	return want
}

// familyPool returns the pool entry of cfg's structural family, or nil.
func familyPool(e *Engine, cfg core.Config) *sessionPool {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if v, ok := e.prepared.get(poolKey(cfg)); ok {
		return v.(*sessionPool)
	}
	return nil
}

// TestPooledMissesMatchAnalyze drives the shuffled grid through Eval and
// EvalBatch on fresh engines with 1, 2 and 4 workers. Every miss after a
// family's first patches a session cloned from the family's anchor, so
// each family explores once, and every answer must equal core.Analyze bit
// for bit.
func TestPooledMissesMatchAnalyze(t *testing.T) {
	cfgs := missGrid(1)
	want := analyzeAll(t, cfgs)
	const families = 6
	for _, workers := range []int{1, 2, 4} {
		for _, path := range []string{"Eval", "EvalBatch"} {
			e := New(Options{Workers: workers})
			explored, patched := exploreCalls(), ctmc.PatchedSolves()
			var got []*core.Result
			if path == "Eval" {
				got = make([]*core.Result, len(cfgs))
				for i, c := range cfgs {
					r, err := e.Eval(c)
					if err != nil {
						t.Fatalf("workers=%d %s point %d: %v", workers, path, i, err)
					}
					got[i] = r
				}
			} else {
				var err error
				if got, err = e.EvalBatch(cfgs); err != nil {
					t.Fatalf("workers=%d %s: %v", workers, path, err)
				}
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("workers=%d %s point %d (%+v):\n got %+v\nwant %+v", workers, path, i, cfgs[i], got[i], want[i])
				}
			}
			if n := ctmc.PatchedSolves() - patched; n != uint64(len(cfgs)-families) {
				t.Errorf("workers=%d %s: %d patched solves for %d misses, want %d",
					workers, path, n, len(cfgs), len(cfgs)-families)
			}
			if n := exploreCalls() - explored; obs.Armed() && n != families {
				t.Errorf("workers=%d %s: %d explores, want one per family (%d)", workers, path, n, families)
			}
		}
	}
}

// TestPooledMissesShareAnchors runs concurrent batches across families on
// one engine while other goroutines analyse, count and sample the cached
// anchors the pooled sessions are cloned from. Run it under -race: a
// session is never shared while in use, never writes into the anchor, and
// goes back to the pool only after its point's Result is built.
func TestPooledMissesShareAnchors(t *testing.T) {
	cfgs := missGrid(2)
	want := analyzeAll(t, cfgs)
	e := New(Options{Workers: 4})

	// Cache one model per family; each family's first miss then anchors
	// its pool on that cached model.
	anchors := make(map[string]*core.Prepared)
	var seed []core.Config
	for _, c := range cfgs {
		if _, ok := anchors[core.StructuralKey(c)]; !ok {
			p, err := e.Prepared(c)
			if err != nil {
				t.Fatal(err)
			}
			anchors[core.StructuralKey(c)] = p
			seed = append(seed, c)
		}
	}
	if _, err := e.EvalBatch(seed); err != nil {
		t.Fatal(err)
	}

	const batches = 4
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			var idx []int
			for i := b; i < len(cfgs); i += batches {
				idx = append(idx, i)
			}
			batch := make([]core.Config, len(idx))
			for k, i := range idx {
				batch[k] = cfgs[i]
			}
			got, err := e.EvalBatch(batch)
			if err != nil {
				t.Error(err)
				return
			}
			for k, i := range idx {
				if !reflect.DeepEqual(got[k], want[i]) {
					t.Errorf("point %d: got %+v want %+v", i, got[k], want[i])
				}
			}
		}(b)
	}
	var s int64
	for _, p := range anchors {
		wg.Add(1)
		s++
		go func(p *core.Prepared, seed int64) {
			defer wg.Done()
			wantP, err := core.Analyze(p.Model.Config)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := p.Analyze()
			if err != nil {
				t.Error(err)
				return
			}
			if g := *got; !reflect.DeepEqual(&g, wantP) {
				t.Errorf("anchor %s changed: got %+v want %+v", core.StructuralKey(p.Model.Config), g, wantP)
			}
			if _, err := p.ExpectedCounts(); err != nil {
				t.Error(err)
			}
			if _, err := e.Survival(p.Model.Config, 20, seed); err != nil {
				t.Error(err)
			}
		}(p, s)
	}
	wg.Wait()
}

// clusterStylePoints draws fresh points like a cluster workload does:
// default configuration, N ∈ {20,30,40} (three structural families), m,
// detection shape and a log-uniform TIDS at random. The solver is pinned
// to auto, the only backend whose misses patch.
func clusterStylePoints(seed uint64, count int) []core.Config {
	r := rand.New(rand.NewPCG(seed, 96))
	kinds := shapes.Kinds()
	cfgs := make([]core.Config, count)
	for i := range cfgs {
		c := core.DefaultConfig()
		c.N = []int{20, 30, 40}[r.IntN(3)]
		c.M = []int{3, 5, 7, 9}[r.IntN(4)]
		c.Detection = kinds[r.IntN(len(kinds))]
		c.TIDS = 5 * math.Pow(240, r.Float64())
		c.Solver = ctmc.BackendAuto
		cfgs[i] = c
	}
	return cfgs
}

// TestMissesPatchFromPool is the miss path's attribution: streaming fresh
// points of three families through a two-worker engine in four-point
// batches explores each family's state space once, and every other
// evaluation is a patched re-solve.
func TestMissesPatchFromPool(t *testing.T) {
	const families, workers, points = 3, 2, 96
	cfgs := clusterStylePoints(7, points)
	e := New(Options{Workers: workers})
	explored, patched := exploreCalls(), ctmc.PatchedSolves()
	for b := 0; b < points; b += 4 {
		if _, err := e.EvalBatch(cfgs[b : b+4]); err != nil {
			t.Fatal(err)
		}
	}
	explored, patched = exploreCalls()-explored, ctmc.PatchedSolves()-patched
	evals := e.Stats().Evals
	t.Logf("%d evals: %d explored, %d patched", evals, explored, patched)
	if evals != points {
		t.Errorf("%d evals for %d fresh points", evals, points)
	}
	if obs.Armed() && explored != families {
		t.Errorf("explore ran %d times, want once per family (%d)", explored, families)
	}
	if patched != evals-families {
		t.Errorf("%d of %d evals patched, want %d", patched, evals, evals-families)
	}
	// Patched models are never cached: the prepared LRU holds one pool
	// per family, the anchor inside it.
	if st := e.Stats(); st.PreparedEntries != families {
		t.Errorf("%d prepared entries, want %d", st.PreparedEntries, families)
	}
}

// TestResetEmptiesSessionPool pins the pool's life cycle: the first miss
// publishes the family's anchor and clones no session, the second clones
// one and returns it idle, and Reset drops the pool with the rest of the
// prepared cache, so the next miss explores again.
func TestResetEmptiesSessionPool(t *testing.T) {
	cfgs := clusterStylePoints(8, 3)
	cfgs[1], cfgs[2] = cfgs[0], cfgs[0]
	cfgs[1].TIDS *= 2
	cfgs[2].TIDS *= 3
	e := New(Options{Workers: 1})
	if _, err := e.Eval(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if sp := familyPool(e, cfgs[0]); sp == nil || sp.anchor == nil || len(sp.idle) != 0 {
		t.Fatalf("after the first miss: pool %+v, want an anchor and no idle session", sp)
	}
	if _, err := e.Eval(cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if sp := familyPool(e, cfgs[0]); sp == nil || sp.anchor == nil || len(sp.idle) != 1 {
		t.Fatalf("after the second miss: pool %+v, want an anchor and one idle session", sp)
	}
	e.Reset()
	if sp := familyPool(e, cfgs[0]); sp != nil {
		t.Errorf("pool survived Reset: %+v", sp)
	}
	if st := e.Stats(); st.PreparedEntries != 0 || st.PreparedBytes != 0 {
		t.Errorf("prepared cache after Reset: %d entries, %d bytes", st.PreparedEntries, st.PreparedBytes)
	}
	patched := ctmc.PatchedSolves()
	if _, err := e.Eval(cfgs[2]); err != nil {
		t.Fatal(err)
	}
	if n := ctmc.PatchedSolves() - patched; n != 0 {
		t.Errorf("first miss after Reset patched %d solves, want a full prepare", n)
	}
}

// TestIdleSessionsChargedToBudget pins that a family's anchor and idle
// sessions count against the prepared-cache byte budget, and that a
// budget too small for the anchor keeps no pool: every miss then takes
// the full path.
func TestIdleSessionsChargedToBudget(t *testing.T) {
	cfgs := clusterStylePoints(9, 2)
	cfgs[1] = cfgs[0]
	cfgs[1].TIDS *= 2
	e := New(Options{Workers: 1})
	for _, c := range cfgs {
		if _, err := e.Eval(c); err != nil {
			t.Fatal(err)
		}
	}
	sp := familyPool(e, cfgs[0])
	if sp == nil || sp.anchor == nil || len(sp.idle) != 1 {
		t.Fatalf("after two misses: pool %+v, want an anchor and one idle session", sp)
	}
	size := sp.anchor.SizeBytes() + sp.idle[0].SizeBytes()
	if st := e.Stats(); st.PreparedEntries != 1 || st.PreparedBytes != size {
		t.Errorf("after two misses: %d entries, %d bytes; want the pool alone at %d bytes",
			st.PreparedEntries, st.PreparedBytes, size)
	}

	tight := New(Options{Workers: 1, PreparedCacheBytes: sp.anchor.SizeBytes() / 2})
	patched := ctmc.PatchedSolves()
	for i := 0; i < 3; i++ {
		c := cfgs[0]
		c.TIDS *= float64(i + 2)
		if _, err := tight.Eval(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := ctmc.PatchedSolves() - patched; n != 0 {
		t.Errorf("%d patched solves under a budget no anchor fits, want 0", n)
	}
	if sp := familyPool(tight, cfgs[0]); sp != nil {
		t.Errorf("pool kept over budget: %+v", sp)
	}
}

// TestPooledMissesUnderSolverChaos streams fresh points through an engine
// under seeded solver faults that also hit patched solves. A failing
// patched miss must drop its session and fall back to a full prepare, and
// every answer must match the fault-free run within 1e-9. Solver faults
// are absorbed below the engine: no recovered panic, no refused result.
func TestPooledMissesUnderSolverChaos(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	const workers = 2
	cfgs := clusterStylePoints(10, 48)
	want, err := New(Options{Workers: workers}).EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		faultinject.Enable(faultinject.Plan{Seed: seed, Rates: map[string]float64{
			faultinject.SolverBreakdown: 0.4,
			faultinject.SolverNonFinite: 0.3,
		}})
		armed := faultinject.Enabled() // false when built with repro_nofaults
		e := New(Options{Workers: workers})
		explored := exploreCalls()
		got, err := e.EvalBatch(cfgs)
		explored = exploreCalls() - explored
		fired := faultinject.FiredCounts()
		faultinject.Disable()
		if err != nil {
			t.Fatalf("seed %d: batch under solver chaos failed: %v", seed, err)
		}
		for i := range want {
			w, g := want[i], got[i]
			if d := math.Abs(g.MTTSF-w.MTTSF) / w.MTTSF; d > 1e-9 {
				t.Errorf("seed %d point %d: MTTSF %v vs fault-free %v", seed, i, g.MTTSF, w.MTTSF)
			}
			if d := math.Abs(g.Ctotal-w.Ctotal) / w.Ctotal; d > 1e-9 {
				t.Errorf("seed %d point %d: Ctotal %v vs fault-free %v", seed, i, g.Ctotal, w.Ctotal)
			}
		}
		st := e.Stats()
		if st.PanicsRecovered != 0 || st.NonFiniteRejected != 0 {
			t.Errorf("seed %d: %d panics recovered, %d results refused; solver faults must not reach the engine",
				seed, st.PanicsRecovered, st.NonFiniteRejected)
		}
		t.Logf("seed %d: fired %v, %d explores for %d points", seed, fired, explored, len(cfgs))
		if armed && obs.Armed() && explored <= 3*workers {
			t.Errorf("seed %d: %d explores; failed patched misses must fall back to full prepares", seed, explored)
		}
	}
}

// TestColdMissesJoinOneAnchor pins the family's in-flight anchor prepare.
// Concurrent cold misses of one family explore once: the first leads, and
// the rest wait for its prepare and clone sessions from the anchor it
// publishes. A leader that fails — an invalid configuration whose prepare
// errors, or an evaluation the EnginePanic fault kills — still releases
// the family: no miss wedges, the waiters fall back to their own full
// prepares, and a later miss leads a new anchor prepare.
func TestColdMissesJoinOneAnchor(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	const workers = 8
	r := rand.New(rand.NewPCG(26, 1))
	cfgs := make([]core.Config, 16)
	for i := range cfgs {
		c := core.DefaultConfig()
		c.N = 30
		c.M = []int{3, 5, 7, 9}[r.IntN(4)]
		c.Detection = shapes.Kinds()[r.IntN(3)]
		c.TIDS = 5 * math.Pow(240, r.Float64())
		c.Solver = ctmc.BackendAuto
		cfgs[i] = c
	}
	want := analyzeAll(t, cfgs)
	bad := cfgs[0]
	bad.TIDS = -1 // same family, but its prepare fails validation

	// within runs fn and fails the test if it does not return in time.
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s wedged", what)
		}
	}
	inFlight := func(e *Engine) int {
		e.pmu.Lock()
		defer e.pmu.Unlock()
		return len(e.anchoring)
	}
	// evalEach evaluates every point concurrently, keeping per-point errors.
	evalEach := func(e *Engine, cfgs []core.Config) ([]*core.Result, []error) {
		got, errs := make([]*core.Result, len(cfgs)), make([]error, len(cfgs))
		within("concurrent cold misses", func() {
			core.ForEachIndexed(len(cfgs), workers, func(i int) { got[i], errs[i] = e.Eval(cfgs[i]) })
		})
		return got, errs
	}
	// allExact checks a fault-free pass: every point answered bit for bit,
	// with at most maxExplores explores.
	allExact := func(label string, e *Engine, maxExplores uint64) {
		t.Helper()
		explored := exploreCalls()
		got, errs := evalEach(e, cfgs)
		for i := range cfgs {
			if errs[i] != nil {
				t.Errorf("%s point %d: %v", label, i, errs[i])
			} else if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s point %d: got %+v want %+v", label, i, got[i], want[i])
			}
		}
		if n := exploreCalls() - explored; obs.Armed() && n > maxExplores {
			t.Errorf("%s: %d explores, want at most %d", label, n, maxExplores)
		}
		if n := inFlight(e); n != 0 {
			t.Errorf("%s: %d anchor prepares still in flight", label, n)
		}
	}

	allExact("cold", New(Options{Workers: workers}), 1)

	// A leader whose prepare fails releases the family.
	e := New(Options{Workers: workers})
	within("failing leader", func() {
		if _, err := e.Eval(bad); err == nil {
			t.Error("an invalid configuration evaluated")
		}
	})
	if n := inFlight(e); n != 0 {
		t.Fatalf("%d anchor prepares in flight after the leader failed", n)
	}
	allExact("after a failing leader", e, 1)

	// The same, racing: whichever miss leads, the invalid one fails alone.
	e = New(Options{Workers: workers})
	got, errs := evalEach(e, append([]core.Config{bad}, cfgs...))
	if errs[0] == nil {
		t.Error("an invalid configuration evaluated in a cold batch")
	}
	for i := range cfgs {
		if errs[i+1] != nil || !reflect.DeepEqual(got[i+1], want[i]) {
			t.Errorf("point %d beside a failing miss: %+v, %v", i, got[i+1], errs[i+1])
		}
	}

	// A leader the EnginePanic fault kills releases the family too.
	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.EnginePanic: 1}})
	if !faultinject.Enabled() {
		t.Log("fault probes compiled out (repro_nofaults): panic legs skipped")
		return
	}
	e = New(Options{Workers: workers})
	within("panicking leader", func() {
		if _, err := e.Eval(cfgs[0]); !errors.Is(err, ErrEvalPanic) {
			t.Errorf("forced panic surfaced as %v", err)
		}
	})
	faultinject.Disable()
	if n := inFlight(e); n != 0 {
		t.Fatalf("%d anchor prepares in flight after the leader panicked", n)
	}
	allExact("after a panicking leader", e, 1)

	// Concurrent cold misses under random panics: every point answers
	// exactly or reports the panic, and the family recovers afterwards.
	for _, seed := range chaosSeeds(t) {
		faultinject.Enable(faultinject.Plan{Seed: seed, Rates: map[string]float64{faultinject.EnginePanic: 0.3}})
		e := New(Options{Workers: workers})
		got, errs := evalEach(e, cfgs)
		fired := faultinject.FiredCounts()[faultinject.EnginePanic]
		faultinject.Disable()
		var panicked uint64
		for i := range cfgs {
			switch {
			case errors.Is(errs[i], ErrEvalPanic):
				panicked++
			case errs[i] != nil:
				t.Errorf("seed %d point %d: %v", seed, i, errs[i])
			case !reflect.DeepEqual(got[i], want[i]):
				t.Errorf("seed %d point %d: got %+v want %+v", seed, i, got[i], want[i])
			}
		}
		if panicked != fired {
			t.Errorf("seed %d: %d points report a panic, %d fired", seed, panicked, fired)
		}
		allExact(fmt.Sprintf("seed %d, after the panics", seed), e, 1)
	}
}

// TestPinnedBackendMissesMatchAnalyze pins that a point pinned to an
// iterative backend patches like any other: each family still explores
// once, and every answer — re-solved through the working chain's ladder on
// fresh ILU(0) factors of the patched values — equals the pinned backend's
// full prepare bit for bit.
func TestPinnedBackendMissesMatchAnalyze(t *testing.T) {
	const families = 6
	for _, name := range []string{ctmc.BackendILUBiCGSTAB, ctmc.BackendGMRES} {
		cfgs := missGrid(3)
		for i := range cfgs {
			cfgs[i].Solver = name
		}
		want := analyzeAll(t, cfgs)
		e := New(Options{Workers: 2})
		patched := ctmc.PatchedSolves()
		got, err := e.EvalBatch(cfgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s point %d: got %+v want %+v", name, i, got[i], want[i])
			}
		}
		if n := ctmc.PatchedSolves() - patched; n != uint64(len(cfgs)-families) {
			t.Errorf("%s: %d patched solves for %d misses, want %d", name, n, len(cfgs), len(cfgs)-families)
		}
	}
}
