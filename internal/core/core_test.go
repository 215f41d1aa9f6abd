package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/shapes"
	"repro/internal/spn"
)

// smallConfig returns a down-scaled configuration that keeps unit tests
// fast (a few thousand states) while preserving every mechanism.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 30
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := map[string]func(*Config){
		"N":         func(c *Config) { c.N = 1 },
		"LambdaC":   func(c *Config) { c.LambdaC = 0 },
		"TIDS":      func(c *Config) { c.TIDS = -5 },
		"M":         func(c *Config) { c.M = 0 },
		"P1":        func(c *Config) { c.P1 = 1.5 },
		"P2":        func(c *Config) { c.P2 = -0.1 },
		"LambdaQ":   func(c *Config) { c.LambdaQ = -1 },
		"Bandwidth": func(c *Config) { c.BandwidthBps = 0 },
		"GDH":       func(c *Config) { c.GDHElementBits = 0 },
		"MaxGroups": func(c *Config) { c.MaxGroups = 0 },
		"MeanHops":  func(c *Config) { c.MeanHops = 0.3 },
		"ShapeP":    func(c *Config) { c.ShapeP = 1 },
		"Churn":     func(c *Config) { c.JoinRate = -1 },
		"Partition": func(c *Config) { c.PartitionRate = -1 },
		"Attacker":  func(c *Config) { c.Attacker = 10 },
		"Detection": func(c *Config) { c.Detection = -1 },
		"HugeN":     func(c *Config) { c.N = 1 << 40 },
		"NOverMax":  func(c *Config) { c.MaxStates = c.N },
		"MaxStates": func(c *Config) { c.MaxStates = -1 },
		"HugeMax":   func(c *Config) { c.N, c.MaxStates = 1<<40-1, 1<<40 },
	}
	for name, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestValidateRejectsNonFinite sets every float64 field of Config, found
// by reflection so that fields added later are covered too, to NaN and
// ±Inf in turn: Validate must reject each. Before, a NaN P1 passed every
// range check and Analyze answered it.
func TestValidateRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			reflect.ValueOf(&cfg).Elem().Field(i).SetFloat(bad)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v accepted", typ.Field(i).Name, bad)
			}
			if _, err := Analyze(cfg); err == nil {
				t.Errorf("%s = %v: Analyze answered", typ.Field(i).Name, bad)
			}
		}
	}
	if fields == 0 {
		t.Fatal("no float64 fields found")
	}
}

func TestBuildModelPlaces(t *testing.T) {
	m, err := BuildModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := m.Net.PlaceNames()
	if len(names) != 4 {
		t.Errorf("compact model has %d places %v, want 4", len(names), names)
	}
	cfg := smallConfig()
	cfg.ExplicitEviction = true
	m2, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Net.PlaceNames()) != 5 {
		t.Errorf("extended model has %d places, want 5", len(m2.Net.PlaceNames()))
	}
	found := false
	for _, tr := range m2.Net.Transitions() {
		if tr.Name == "T_RK" {
			found = true
		}
	}
	if !found {
		t.Error("extended model missing T_RK")
	}
}

func TestInitialMarking(t *testing.T) {
	m, err := BuildModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Initial[m.tm] != 30 || m.Initial[m.ucm] != 0 || m.Initial[m.gf] != 0 || m.Initial[m.ng] != 1 {
		t.Errorf("initial marking %v", m.Initial)
	}
}

func TestClassify(t *testing.T) {
	m, err := BuildModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := make(spn.Marking, m.Net.NumPlaces())
	mk[m.tm], mk[m.ucm] = 10, 0
	if got := m.Classify(mk); got != CauseNone {
		t.Errorf("healthy state classified %v", got)
	}
	mk[m.gf] = 1
	if got := m.Classify(mk); got != CauseC1 {
		t.Errorf("GF state classified %v", got)
	}
	mk[m.gf] = 0
	mk[m.tm], mk[m.ucm] = 5, 3 // 2*3 > 5
	if got := m.Classify(mk); got != CauseC2 {
		t.Errorf("byzantine state classified %v", got)
	}
	// Exactly 1/3 compromised is still alive ("more than 1/3" fails).
	mk[m.tm], mk[m.ucm] = 6, 3
	if got := m.Classify(mk); got != CauseNone {
		t.Errorf("exactly-1/3 state classified %v", got)
	}
	if CauseC1.String() == "" || CauseC2.String() == "" || CauseNone.String() == "" || FailureCause(9).String() == "" {
		t.Error("FailureCause strings empty")
	}
}

func TestPerGroupAdjustment(t *testing.T) {
	m, err := BuildModel(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := make(spn.Marking, m.Net.NumPlaces())
	mk[m.tm], mk[m.ucm], mk[m.ng] = 20, 4, 2
	g, b, size := m.perGroup(mk)
	if g != 10 || b != 2 || size != 12 {
		t.Errorf("perGroup = %d,%d,%d want 10,2,12", g, b, size)
	}
	// A lone compromised node keeps nBad >= 1 even when rounding says 0.
	mk[m.tm], mk[m.ucm], mk[m.ng] = 20, 1, 3
	_, b, _ = m.perGroup(mk)
	if b < 1 {
		t.Errorf("nBad rounded to %d with UCm=1", b)
	}
}

func TestAnalyzeDefaultsPlausible(t *testing.T) {
	res, err := Analyze(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MTTSF < 1e4 || res.MTTSF > 1e8 {
		t.Errorf("MTTSF = %v s, outside plausible band", res.MTTSF)
	}
	if res.Ctotal <= 0 {
		t.Errorf("Ctotal = %v", res.Ctotal)
	}
	sum := res.ProbC1 + res.ProbC2 + res.ProbDepleted
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("failure probabilities sum to %v", sum)
	}
	if res.ProbC1 <= 0 || res.ProbC2 <= 0 {
		t.Errorf("both failure modes should have mass: C1=%v C2=%v", res.ProbC1, res.ProbC2)
	}
	if res.States == 0 || res.Transient == 0 || res.Transient >= res.States {
		t.Errorf("state counts: %d states, %d transient", res.States, res.Transient)
	}
	if res.Utilization != res.Ctotal/res.Config.BandwidthBps {
		t.Error("utilization inconsistent")
	}
	total := res.CostBreakdown.Total()
	if math.Abs(total-res.Ctotal) > 1e-9*total {
		t.Error("breakdown total != Ctotal")
	}
	if res.Power.TotalW <= 0 || res.MissionEnergyJ <= 0 {
		t.Errorf("energy extension empty: %+v / %v J", res.Power, res.MissionEnergyJ)
	}
	if got := res.Power.TotalW * res.MTTSF; math.Abs(got-res.MissionEnergyJ) > 1e-9*got {
		t.Error("mission energy inconsistent with power and MTTSF")
	}
}

func TestMTTSFOnlyMatchesAnalyze(t *testing.T) {
	cfg := smallConfig()
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-res.MTTSF) > 1e-6*res.MTTSF {
		t.Errorf("MTTSFOnly %v vs Analyze %v", m, res.MTTSF)
	}
}

func TestStrongerAttackerLowersMTTSF(t *testing.T) {
	cfg := smallConfig()
	base, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LambdaC *= 4
	faster, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faster >= base {
		t.Errorf("4x attacker rate did not lower MTTSF: %v vs %v", faster, base)
	}
	// Attacker shape ordering at equal LambdaC: poly attack (faster
	// compounding) must not outlive linear, which must not outlive log.
	cfg = smallConfig()
	mttsf := map[shapes.Kind]float64{}
	for _, k := range shapes.Kinds() {
		c := cfg
		c.Attacker = k
		v, err := MTTSFOnly(c)
		if err != nil {
			t.Fatal(err)
		}
		mttsf[k] = v
	}
	if !(mttsf[shapes.Polynomial] <= mttsf[shapes.Linear] && mttsf[shapes.Linear] <= mttsf[shapes.Logarithmic]) {
		t.Errorf("attacker ordering violated: %v", mttsf)
	}
}

func TestWorseHostIDSLowersMTTSF(t *testing.T) {
	cfg := smallConfig()
	base, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.P1 = 0.2 // many more missed detections and data leaks
	worse, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if worse >= base {
		t.Errorf("p1=20%% did not lower MTTSF: %v vs %v", worse, base)
	}
}

func TestMoreVotersRaiseMTTSFAndCost(t *testing.T) {
	// Figure 2/3 headline: at a common TIDS, larger m gives larger MTTSF
	// and larger Ĉtotal.
	cfg := smallConfig()
	cfg.TIDS = 60
	var prev *Result
	for _, m := range []int{3, 5, 7} {
		c := cfg
		c.M = m
		res, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if res.MTTSF <= prev.MTTSF {
				t.Errorf("m=%d MTTSF %v not above m-2's %v", m, res.MTTSF, prev.MTTSF)
			}
			if res.Ctotal <= prev.Ctotal {
				t.Errorf("m=%d Ctotal %v not above m-2's %v", m, res.Ctotal, prev.Ctotal)
			}
		}
		prev = res
	}
}

func TestMTTSFUnimodalInTIDS(t *testing.T) {
	// Figure 2 shape: MTTSF rises to an interior optimum then falls.
	cfg := smallConfig()
	points, err := SweepTIDS(cfg, PaperTIDSGrid)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range points {
		if points[i].Result.MTTSF > points[best].Result.MTTSF {
			best = i
		}
	}
	if best == 0 || best == len(points)-1 {
		t.Errorf("optimal TIDS at grid boundary (%v); expected interior optimum", points[best].TIDS)
	}
	// No second rise after the peak (unimodality within tolerance).
	for i := best + 1; i < len(points)-1; i++ {
		if points[i+1].Result.MTTSF > points[i].Result.MTTSF*1.02 {
			t.Errorf("MTTSF rises again after peak at TIDS=%v", points[i+1].TIDS)
		}
	}
}

func TestOptimalTIDSDecreasesWithM(t *testing.T) {
	// Figure 2: "A smaller m results in a longer optimal TIDS".
	cfg := smallConfig()
	grid := PaperTIDSGrid
	prevOpt := math.Inf(1)
	prevPeak := 0.0
	for _, m := range []int{3, 5, 7} {
		c := cfg
		c.M = m
		opt, err := OptimalTIDSForMTTSF(c, grid)
		if err != nil {
			t.Fatal(err)
		}
		if opt.TIDS > prevOpt {
			t.Errorf("m=%d optimal TIDS %v above m-2's %v", m, opt.TIDS, prevOpt)
		}
		if opt.Result.MTTSF < prevPeak {
			t.Errorf("m=%d peak MTTSF %v below m-2's %v", m, opt.Result.MTTSF, prevPeak)
		}
		prevOpt, prevPeak = opt.TIDS, opt.Result.MTTSF
	}
}

func TestCtotalHasInteriorStructure(t *testing.T) {
	// Figure 3/5 shape: Ĉtotal eventually increases with TIDS (slower
	// detection prolongs expensive full-membership operation).
	cfg := smallConfig()
	points, err := SweepTIDS(cfg, []float64{30, 120, 480, 1200})
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0].Result.Ctotal, points[len(points)-1].Result.Ctotal
	if last <= first {
		t.Errorf("Ctotal at TIDS=1200 (%v) not above TIDS=30 (%v)", last, first)
	}
}

func TestCompactVsExplicitEvictionAgree(t *testing.T) {
	// The extended model (explicit DCm + T_RK) must agree with the
	// compact model within a few percent, since Tcm (seconds) is tiny
	// against mission time (days).
	cfg := smallConfig()
	cfg.N = 16
	compact, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExplicitEviction = true
	extended, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(extended) || math.IsInf(extended, 0) || extended <= 0 {
		t.Fatalf("extended model MTTSF = %v", extended)
	}
	// Written as !(rel <= 0.05) so a NaN relative error fails loudly.
	if rel := math.Abs(extended-compact) / compact; !(rel <= 0.05) {
		t.Errorf("models disagree by %.1f%%: compact %v vs extended %v", rel*100, compact, extended)
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := SweepTIDS(smallConfig(), nil); err == nil {
		t.Error("empty grid accepted")
	}
	bad := smallConfig()
	bad.N = 0
	if _, err := SweepTIDS(bad, []float64{60}); err == nil {
		t.Error("invalid config accepted by sweep")
	}
}

func TestOptimalTIDSForCost(t *testing.T) {
	cfg := smallConfig()
	opt, err := OptimalTIDSForCost(cfg, []float64{15, 60, 240, 1200})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range opt.Points {
		if p.Result.Ctotal < opt.Result.Ctotal {
			t.Errorf("OptimalTIDSForCost missed better point at TIDS=%v", p.TIDS)
		}
	}
}

func TestConstrainedOptimum(t *testing.T) {
	cfg := smallConfig()
	grid := []float64{15, 60, 240, 1200}
	points, err := SweepTIDS(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Budget between min and max cost: feasible, and the answer must
	// respect it.
	minC, maxC := math.Inf(1), 0.0
	for _, p := range points {
		minC = math.Min(minC, p.Result.Ctotal)
		maxC = math.Max(maxC, p.Result.Ctotal)
	}
	budget := (minC + maxC) / 2
	opt, err := ConstrainedOptimum(cfg, grid, budget)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Result.Ctotal > budget {
		t.Errorf("constrained optimum violates budget: %v > %v", opt.Result.Ctotal, budget)
	}
	for _, p := range points {
		if p.Result.Ctotal <= budget && p.Result.MTTSF > opt.Result.MTTSF {
			t.Errorf("feasible point at TIDS=%v beats the reported optimum", p.TIDS)
		}
	}
	// Infeasible budget errors.
	if _, err := ConstrainedOptimum(cfg, grid, minC/10); err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestCompareDetectionsCoversAllKinds(t *testing.T) {
	cfg := smallConfig()
	cmp, err := CompareDetections(cfg, []float64{30, 240})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Series) != 3 {
		t.Fatalf("series for %d kinds, want 3", len(cmp.Series))
	}
	for _, k := range shapes.Kinds() {
		if len(cmp.Series[k]) != 2 {
			t.Errorf("kind %v has %d points", k, len(cmp.Series[k]))
		}
	}
}

func TestDetectionCrossover(t *testing.T) {
	// Figures 4's crossover claims: under a linear attacker, logarithmic
	// detection beats polynomial at very small TIDS and polynomial beats
	// logarithmic at very large TIDS.
	cfg := smallConfig()
	cmp, err := CompareDetections(cfg, []float64{5, 1200})
	if err != nil {
		t.Fatal(err)
	}
	logS := cmp.Series[shapes.Logarithmic]
	polyS := cmp.Series[shapes.Polynomial]
	if logS[0].Result.MTTSF <= polyS[0].Result.MTTSF {
		t.Errorf("at TIDS=5: log %v should beat poly %v", logS[0].Result.MTTSF, polyS[0].Result.MTTSF)
	}
	if polyS[1].Result.MTTSF <= logS[1].Result.MTTSF {
		t.Errorf("at TIDS=1200: poly %v should beat log %v", polyS[1].Result.MTTSF, logS[1].Result.MTTSF)
	}
}

func TestBestDetection(t *testing.T) {
	cfg := smallConfig()
	kind, tids, res, err := BestDetection(cfg, []float64{15, 60, 240})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.MTTSF <= 0 {
		t.Fatal("BestDetection returned empty result")
	}
	okKind := false
	for _, k := range shapes.Kinds() {
		if kind == k {
			okKind = true
		}
	}
	if !okKind {
		t.Errorf("BestDetection kind = %v", kind)
	}
	okT := false
	for _, g := range []float64{15, 60, 240} {
		if tids == g {
			okT = true
		}
	}
	if !okT {
		t.Errorf("BestDetection TIDS = %v not on grid", tids)
	}
}

func TestSojournByMembershipSumsToMTTSF(t *testing.T) {
	cfg := smallConfig()
	byMembers, err := SojournByMembership(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range byMembers {
		total += v
	}
	mttsf, err := MTTSFOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-mttsf) > 1e-6*mttsf {
		t.Errorf("sojourn-by-membership sums to %v, MTTSF %v", total, mttsf)
	}
	// The full-membership epoch lasts roughly one compromise inter-arrival
	// time (1/LambdaC); it must be present but is only a slice of the
	// mission, because compromise-evict cycles spread the lifetime across
	// shrinking membership levels.
	if byMembers[cfg.N] < 0.02*mttsf {
		t.Errorf("full-membership sojourn %v suspiciously small vs MTTSF %v", byMembers[cfg.N], mttsf)
	}
	if byMembers[cfg.N] > mttsf {
		t.Errorf("full-membership sojourn %v exceeds MTTSF %v", byMembers[cfg.N], mttsf)
	}
}

func TestMaxStatesRespected(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxStates = 10
	if _, err := Analyze(cfg); err == nil {
		t.Error("MaxStates=10 exploration should fail")
	}
}

func TestClusterHeadProtocolAnalyzable(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocol = ProtocolClusterHead
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MTTSF <= 0 || res.Ctotal <= 0 {
		t.Fatalf("cluster-head MTTSF=%v Ctotal=%v", res.MTTSF, res.Ctotal)
	}
	// Voting must outlive cluster-head at identical parameters (the
	// paper's case for majority voting under collusion).
	voteCfg := smallConfig()
	voteRes, err := Analyze(voteCfg)
	if err != nil {
		t.Fatal(err)
	}
	if voteRes.MTTSF <= res.MTTSF {
		t.Errorf("voting MTTSF %v not above cluster-head %v", voteRes.MTTSF, res.MTTSF)
	}
	// Cluster-head IDS traffic per round is cheaper than a 5-voter panel.
	if res.CostBreakdown.IDS >= voteRes.CostBreakdown.IDS {
		t.Errorf("cluster-head IDS traffic %v not below voting %v",
			res.CostBreakdown.IDS, voteRes.CostBreakdown.IDS)
	}
	if ProtocolVoting.String() != "voting" || ProtocolClusterHead.String() != "cluster-head" || Protocol(9).String() == "" {
		t.Error("Protocol strings wrong")
	}
}

func TestGroupDynamicsReachMaxGroups(t *testing.T) {
	// With partitioning enabled, states with NG up to MaxGroups must be
	// reachable.
	cfg := smallConfig()
	cfg.MaxGroups = 3
	m, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	maxNG := 0
	for _, mk := range graph.States {
		if mk[m.ng] > maxNG {
			maxNG = mk[m.ng]
		}
	}
	if maxNG != 3 {
		t.Errorf("max NG reached = %d, want 3", maxNG)
	}
}
