package repro

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

// apiConfig is a fast configuration for API-level tests.
func apiConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 25
	return cfg
}

func TestPublicAnalyze(t *testing.T) {
	res, err := Analyze(apiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MTTSF <= 0 || res.Ctotal <= 0 {
		t.Fatalf("MTTSF=%v Ctotal=%v", res.MTTSF, res.Ctotal)
	}
	m, err := MTTSF(apiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-res.MTTSF) > 1e-6*res.MTTSF {
		t.Errorf("MTTSF() %v disagrees with Analyze %v", m, res.MTTSF)
	}
}

func TestPublicSweepAndOptima(t *testing.T) {
	grid := []float64{15, 60, 240, 1200}
	points, err := SweepTIDS(apiConfig(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(grid) {
		t.Fatalf("points = %d", len(points))
	}
	optM, err := OptimalTIDSForMTTSF(apiConfig(), grid)
	if err != nil {
		t.Fatal(err)
	}
	optC, err := OptimalTIDSForCost(apiConfig(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Result.MTTSF > optM.Result.MTTSF {
			t.Error("OptimalTIDSForMTTSF not optimal")
		}
		if p.Result.Ctotal < optC.Result.Ctotal {
			t.Error("OptimalTIDSForCost not optimal")
		}
	}
	// Security/performance tradeoff: constrained optimum obeys its budget.
	budget := optC.Result.Ctotal * 1.1
	con, err := ConstrainedOptimum(apiConfig(), grid, budget)
	if err != nil {
		t.Fatal(err)
	}
	if con.Result.Ctotal > budget {
		t.Errorf("budget violated: %v > %v", con.Result.Ctotal, budget)
	}
}

func TestPublicVotingMatchesInternal(t *testing.T) {
	pfp := VotingFalsePositive(20, 3, 5, 0.01)
	pfn := VotingFalseNegative(20, 3, 5, 0.01)
	if pfp <= 0 || pfp >= 1 || pfn <= 0 || pfn >= 1 {
		t.Errorf("Pfp=%v Pfn=%v out of expected open interval", pfp, pfn)
	}
}

func TestPublicSimulator(t *testing.T) {
	cfg := apiConfig()
	cfg.LambdaC = 1.0 / 1800
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.EstimateMTTSF(10, 1e8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.MTTSF.Mean <= 0 {
		t.Errorf("sim estimate %+v", est.MTTSF)
	}
}

func TestPublicClassifierAndResponse(t *testing.T) {
	// Linear attacker produces roughly evenly spaced compromises early on.
	times := []float64{100, 210, 290, 405, 520, 590, 700, 810, 940, 1020}
	kind, err := ClassifyAttacker(times, 50)
	if err != nil {
		t.Fatal(err)
	}
	_ = kind // any of the three kinds is legitimate for so few samples
	if BestResponse(Linear) != Linear || BestResponse(Polynomial) != Polynomial {
		t.Error("BestResponse is not the identity mapping")
	}
	if _, err := ClassifyAttacker([]float64{1}, 50); err == nil {
		t.Error("too-short history accepted")
	}
}

func TestPublicCalibration(t *testing.T) {
	gd, err := CalibrateMobility(CalibrateOpts{
		Nodes: 20, RadioRange: 250, Duration: 600, Dt: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ApplyDynamics(apiConfig(), gd)
	if cfg.PartitionRate != gd.PartitionRate || cfg.MergeRate != gd.MergeRate {
		t.Error("ApplyDynamics did not patch rates")
	}
	if gd.MeanHops >= 1 && cfg.MeanHops != gd.MeanHops {
		t.Error("ApplyDynamics did not patch hops")
	}
	if _, err := Analyze(cfg); err != nil {
		t.Fatalf("calibrated config not analyzable: %v", err)
	}
}

func TestPublicFigures(t *testing.T) {
	cfg := apiConfig()
	figs, err := Figures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, c := range CheckFigures(figs) {
		if !c.OK() {
			t.Errorf("%s", c)
		}
	}
}

func TestPublicPerFigureWrappers(t *testing.T) {
	cfg := apiConfig()
	for name, gen := range map[string]func(Config) (*Figure, error){
		"Figure2": Figure2, "Figure3": Figure3, "Figure4": Figure4, "Figure5": Figure5,
	} {
		f, err := gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Series) == 0 {
			t.Errorf("%s produced no series", name)
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	table, err := Baselines(apiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("baseline rows = %d", len(table.Rows))
	}
	if res := table.Check(); !res.OK() {
		t.Errorf("baseline check: %v", res.Violations)
	}
}

func TestPublicSurvivalAndAssurance(t *testing.T) {
	cfg := apiConfig()
	curve, err := Survival(cfg, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Mean() <= 0 {
		t.Fatal("empty survival curve")
	}
	mission := 24 * 3600.0
	ma, err := AssureMission(cfg, []float64{30, 240}, mission, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ma.BestProb < 0 || ma.BestProb > 1 {
		t.Errorf("BestProb = %v", ma.BestProb)
	}
	// The best point's probability must equal its curve's estimate at the
	// mission time within sampling noise.
	if p, ok := ma.PerTIDS[ma.BestTIDS]; !ok || p != ma.BestProb {
		t.Error("BestProb inconsistent with PerTIDS")
	}
}

func TestPublicExpectedCountsAndSensitivity(t *testing.T) {
	cfg := apiConfig()
	ec, err := ExpectedCounts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Compromises <= 0 || ec.Detections < 0 {
		t.Errorf("counts %+v", ec)
	}
	sens, err := SensitivityAnalysis(cfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) == 0 {
		t.Fatal("no sensitivities")
	}
}

func TestFailureCauseConstantsExposed(t *testing.T) {
	if CauseNone.String() != "none" || CauseC1.String() != "C1-data-leak" || CauseC2.String() != "C2-byzantine" {
		t.Error("failure cause constants mismatch")
	}
	if Logarithmic.String() != "logarithmic" || Linear.String() != "linear" || Polynomial.String() != "polynomial" {
		t.Error("kind constants mismatch")
	}
}

func TestBestDetectionAPIMatchesFigure4(t *testing.T) {
	cfg := apiConfig()
	kind, tids, res, err := BestDetection(cfg, []float64{30, 120, 480})
	if err != nil {
		t.Fatal(err)
	}
	if res.MTTSF <= 0 || tids <= 0 {
		t.Fatalf("BestDetection result %v TIDS %v", res.MTTSF, tids)
	}
	if kind != Logarithmic && kind != Linear && kind != Polynomial {
		t.Errorf("kind = %v", kind)
	}
}

func TestPublicSweepOptions(t *testing.T) {
	grid := []float64{30, 120, 480}
	plain, err := SweepTIDS(apiConfig(), grid)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SweepTIDS(apiConfig(), grid, WithWarmStart())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := SweepTIDS(apiConfig(), grid, WithIncremental(), WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for _, got := range [][]SweepPoint{warm, inc} {
			if rel := math.Abs(got[i].Result.MTTSF-plain[i].Result.MTTSF) / plain[i].Result.MTTSF; rel > 1e-9 {
				t.Errorf("point %d: optioned sweep diverges by %v", i, rel)
			}
		}
	}
	// A canceled context stops the sweep at the next point boundary.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepTIDS(apiConfig(), grid, WithContext(ctx)); err == nil {
		t.Error("canceled sweep returned nil error")
	}
}

func TestPublicFrontier(t *testing.T) {
	cfg := apiConfig()
	space := DefaultDesignSpace()
	var revisions int
	frontier, evals, err := Frontier(context.Background(), cfg, FrontierOptions{Space: space},
		func(rev FrontierRevision) error {
			revisions++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 || revisions == 0 {
		t.Fatalf("frontier=%d points, %d revisions", len(frontier), revisions)
	}
	if evals > space.Size() {
		t.Errorf("adaptive exploration spent %d evals on a %d-point space", evals, space.Size())
	}
	want, err := TradeoffFrontier(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != len(want) {
		t.Fatalf("adaptive frontier has %d points, TradeoffFrontier %d", len(frontier), len(want))
	}
	for i := range want {
		if frontier[i] != want[i] {
			t.Errorf("frontier point %d: got %+v, want %+v", i, frontier[i], want[i])
		}
	}
	// The incremental maintainer reproduces the same frontier point-wise.
	fm := NewFrontierMaintainer()
	all, err := ExploreDesignSpace(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		fm.Insert(p)
	}
	if got := fm.Frontier(); len(got) != len(want) {
		t.Errorf("maintainer frontier has %d points, want %d", len(got), len(want))
	}
}

func TestPublicApplyDynamicsChecked(t *testing.T) {
	gd := &GroupDynamics{PartitionRate: 1e-4, MergeRate: 2e-4, MeanHops: 2.5, MeanDegree: 4}
	cfg, err := ApplyDynamicsChecked(apiConfig(), gd)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PartitionRate != gd.PartitionRate || cfg.MergeRate != gd.MergeRate ||
		cfg.MeanHops != gd.MeanHops || cfg.MeanDegree != gd.MeanDegree {
		t.Errorf("checked apply did not patch all fields: %+v", cfg)
	}
	bad := *gd
	bad.MeanHops = 0.4
	if _, err := ApplyDynamicsChecked(apiConfig(), &bad); err == nil {
		t.Error("MeanHops < 1 accepted silently")
	}
	bad = *gd
	bad.MeanDegree = 0
	if _, err := ApplyDynamicsChecked(apiConfig(), &bad); err == nil {
		t.Error("MeanDegree <= 0 accepted silently")
	}
	if _, err := ApplyDynamicsChecked(apiConfig(), nil); err == nil {
		t.Error("nil dynamics accepted silently")
	}
}

func TestPublicClientOptions(t *testing.T) {
	// Compile-and-construct coverage for the consolidated constructor; the
	// behavioral contracts live in internal/service's tests.
	hc := &http.Client{Timeout: time.Second}
	if c := NewClient("http://127.0.0.1:1", WithHTTPClient(hc), WithRetryPolicy(RetryPolicy{MaxAttempts: 2})); c == nil {
		t.Fatal("NewClient returned nil")
	}
	if c := NewClientHTTP("http://127.0.0.1:1", hc); c == nil {
		t.Fatal("NewClientHTTP returned nil")
	}
	if c := NewResilientClient("http://127.0.0.1:1", nil, RetryPolicy{}); c == nil {
		t.Fatal("NewResilientClient returned nil")
	}
}

// TestEvalBatchIncrementalMatchesEvalBatch pins the deprecated incremental
// batch entry's contract: a batch spanning two structural families
// (different N) and several rate-only points per family returns, in order,
// exactly what EvalBatch and a full prepare per point return.
func TestEvalBatchIncrementalMatchesEvalBatch(t *testing.T) {
	var cfgs []Config
	for _, n := range []int{10, 12} {
		for _, tids := range []float64{5, 60, 120, 480, 1200} {
			cfg := DefaultConfig()
			cfg.N = n
			cfg.TIDS = tids
			cfgs = append(cfgs, cfg)
		}
	}
	got, err := EvalBatchIncremental(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) || len(batch) != len(cfgs) {
		t.Fatalf("got %d and %d results, want %d", len(got), len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := core.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil {
			t.Fatalf("point %d: nil result", i)
		}
		if got[i].MTTSF != want.MTTSF || got[i].Ctotal != want.Ctotal {
			t.Errorf("point %d: incremental (%v, %v) vs full prepare (%v, %v)", i, got[i].MTTSF, got[i].Ctotal, want.MTTSF, want.Ctotal)
		}
		if got[i].MTTSF != batch[i].MTTSF || got[i].Ctotal != batch[i].Ctotal {
			t.Errorf("point %d: incremental (%v, %v) vs EvalBatch (%v, %v)", i, got[i].MTTSF, got[i].Ctotal, batch[i].MTTSF, batch[i].Ctotal)
		}
		if got[i].Config.TIDS != cfg.TIDS || got[i].Config.N != cfg.N {
			t.Errorf("point %d: result order broken (got N=%d TIDS=%v)", i, got[i].Config.N, got[i].Config.TIDS)
		}
	}
}

// TestEvalBatchIncrementalCanceled pins cancellation: a pre-canceled
// context evaluates nothing and reports the cancellation per point.
func TestEvalBatchIncrementalCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.N, cfg.TIDS = 11, 123.456 // a point no other test caches
	res, err := EvalBatchIncremental(ctx, []Config{cfg})
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	if res[0] != nil {
		t.Fatal("canceled batch returned a result")
	}
}
