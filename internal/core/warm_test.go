package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/shapes"
)

// analyzeEach evaluates every configuration through its own full prepare
// (no reuse between points): the cold baseline the sweep drivers are
// measured against.
func analyzeEach(t *testing.T, cfgs []Config) []*Result {
	t.Helper()
	out := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// patchedPoints is how many points a one-worker sweep over cfgs patches
// onto an anchor: all but the first of each structural group.
func patchedPoints(cfgs []Config) uint64 {
	groups := make(map[string]bool)
	for _, c := range cfgs {
		groups[StructuralKey(c)] = true
	}
	return uint64(len(cfgs) - len(groups))
}

// TestSweepTIDSWarmStart pins the sweep's reuse contract on the canonical
// TIDS sweep, through the WithWarmStart spelling: identical results to a
// full prepare per point, while every point after the first is patched
// onto the first point's graph and re-solved there instead of being
// re-explored.
func TestSweepTIDSWarmStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 20

	prev := SetDefaultEvaluator(Direct{Workers: 1})
	defer SetDefaultEvaluator(prev)

	cfgs := make([]Config, len(PaperTIDSGrid))
	for i, tids := range PaperTIDSGrid {
		cfgs[i] = cfg
		cfgs[i].TIDS = tids
	}
	cold := analyzeEach(t, cfgs)
	before := ctmc.PatchedSolves()
	warm, err := SweepTIDSOpts(cfg, PaperTIDSGrid, SweepOpts{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	patched := ctmc.PatchedSolves() - before

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
	if want := uint64(len(cfgs) - 1); patched != want {
		t.Errorf("sweep patched %d of %d points, want %d", patched, len(cfgs), want)
	}
}

// TestExploreDesignSpaceWarmStart asserts the design-space driver returns
// the same point set as a full prepare per point (within solver tolerance)
// and patches every point after the first of its structural group.
func TestExploreDesignSpaceWarmStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 12
	space := DesignSpace{
		Ms:         []int{3, 5},
		TIDSGrid:   []float64{30, 120, 480},
		Detections: []shapes.Kind{shapes.Linear},
	}

	prev := SetDefaultEvaluator(Direct{Workers: 1})
	defer SetDefaultEvaluator(prev)

	cfgs := space.Enumerate(cfg)
	coldRes := analyzeEach(t, cfgs)
	cold := make([]DesignPoint, len(cfgs))
	for i, c := range cfgs {
		cold[i] = DesignPoint{M: c.M, TIDS: c.TIDS, Detection: c.Detection, MTTSF: coldRes[i].MTTSF, Ctotal: coldRes[i].Ctotal}
	}
	sort.Slice(cold, func(a, b int) bool { return cold[a].Ctotal < cold[b].Ctotal })

	before := ctmc.PatchedSolves()
	warm, err := ExploreDesignSpaceOpts(cfg, space, SweepOpts{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	patched := ctmc.PatchedSolves() - before

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
	if want := patchedPoints(cfgs); patched != want || want == 0 {
		t.Errorf("design space patched %d of %d points, want %d (> 0)", patched, len(cfgs), want)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
