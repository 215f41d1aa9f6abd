package engine

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

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

// TestPooledMissesMatchAnalyze drives the shuffled grid through Eval and
// EvalBatch on fresh engines with 1, 2 and 4 workers. Every miss after a
// family's first few patches a pooled session, and every answer must equal
// core.Analyze bit for bit.
func TestPooledMissesMatchAnalyze(t *testing.T) {
	cfgs := missGrid(1)
	want := analyzeAll(t, cfgs)
	const families = 6
	for _, workers := range []int{1, 2, 4} {
		for _, path := range []string{"Eval", "EvalBatch"} {
			e := New(Options{Workers: workers})
			patched := ctmc.PatchedSolves()
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
			// Sequential Evals seed one session per family; a batch may
			// seed up to one per worker.
			seeded := families
			if path == "EvalBatch" {
				seeded *= workers
			}
			if n := ctmc.PatchedSolves() - patched; n < uint64(len(cfgs)-seeded) {
				t.Errorf("workers=%d %s: %d patched solves for %d misses, want at least %d",
					workers, path, n, len(cfgs), len(cfgs)-seeded)
			}
		}
	}
}

// TestPooledMissesShareAnchors runs concurrent batches across families on
// one engine while other goroutines analyse, count and sample the cached
// anchors the pooled sessions were seeded from. Run it under -race: a
// session is never shared while in use, never writes into the anchor, and
// goes back to the pool only after its point's Result is built.
func TestPooledMissesShareAnchors(t *testing.T) {
	cfgs := missGrid(2)
	want := analyzeAll(t, cfgs)
	e := New(Options{Workers: 4})

	// Seed every family's pool and cache its anchor.
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
// batches explores at most families × workers state spaces, and at least
// 90% of the evaluations are patched re-solves.
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
	if obs.Armed() && explored > families*workers {
		t.Errorf("explore ran %d times, want at most %d (families × workers)", explored, families*workers)
	}
	if 10*patched < 9*evals {
		t.Errorf("%d of %d evals patched, want at least 90%%", patched, evals)
	}
	// Patched models are never cached: the prepared LRU holds the anchors
	// and one session pool per family.
	if st := e.Stats(); st.PreparedEntries > families*workers+families {
		t.Errorf("%d prepared entries, want at most %d", st.PreparedEntries, families*workers+families)
	}
}

// TestResetEmptiesSessionPool pins that Reset drops the idle sessions with
// the rest of the prepared cache: the next miss explores again.
func TestResetEmptiesSessionPool(t *testing.T) {
	cfgs := clusterStylePoints(8, 2)
	cfgs[1] = cfgs[0]
	cfgs[1].TIDS *= 2
	e := New(Options{Workers: 1})
	if _, err := e.Eval(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if n := e.idleSessions(poolKey(cfgs[0])); n != 1 {
		t.Fatalf("%d idle sessions after the first miss, want 1", n)
	}
	e.Reset()
	if n := e.idleSessions(poolKey(cfgs[0])); n != 0 {
		t.Errorf("%d idle sessions after Reset, want 0", n)
	}
	if st := e.Stats(); st.PreparedEntries != 0 || st.PreparedBytes != 0 {
		t.Errorf("prepared cache after Reset: %d entries, %d bytes", st.PreparedEntries, st.PreparedBytes)
	}
	patched := ctmc.PatchedSolves()
	if _, err := e.Eval(cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if n := ctmc.PatchedSolves() - patched; n != 0 {
		t.Errorf("first miss after Reset patched %d solves, want a full prepare", n)
	}
}

// TestIdleSessionsChargedToBudget pins that idle sessions count against the
// prepared-cache byte budget, and that a budget too small for a family's
// pool keeps no session: every miss then takes the full path.
func TestIdleSessionsChargedToBudget(t *testing.T) {
	cfgs := clusterStylePoints(9, 1)
	e := New(Options{Workers: 1})
	if _, err := e.Eval(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepared(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PreparedEntries != 2 || st.PreparedBytes <= p.SizeBytes() {
		t.Errorf("after one miss: %d entries, %d bytes; want the model (%d bytes) and a session pool",
			st.PreparedEntries, st.PreparedBytes, p.SizeBytes())
	}

	tight := New(Options{Workers: 1, PreparedCacheBytes: p.SizeBytes() / 2})
	patched := ctmc.PatchedSolves()
	for i := 0; i < 3; i++ {
		c := cfgs[0]
		c.TIDS *= float64(i + 2)
		if _, err := tight.Eval(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := ctmc.PatchedSolves() - patched; n != 0 {
		t.Errorf("%d patched solves under a budget no session fits, want 0", n)
	}
	if n := tight.idleSessions(poolKey(cfgs[0])); n != 0 {
		t.Errorf("%d idle sessions kept over budget", n)
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
