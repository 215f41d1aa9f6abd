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

// TestSweepTIDSWarmStart pins Direct as the sweep's unpatched oracle on
// the canonical TIDS sweep, through the WithWarmStart spelling: every
// point is a full prepare of its own, bit for bit what Analyze returns,
// and no point is patched. The patched sweep through the memoizing engine
// is pinned against this oracle in internal/engine.
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
	warm, err := SweepTIDS(cfg, PaperTIDSGrid, WithWarmStart())
	if err != nil {
		t.Fatal(err)
	}
	patched := ctmc.PatchedSolves() - before

	if len(warm) != len(cold) {
		t.Fatalf("warm sweep returned %d points, cold %d", len(warm), len(cold))
	}
	for i, c := range cold {
		w := warm[i].Result
		if c.MTTSF != w.MTTSF || c.Ctotal != w.Ctotal {
			t.Errorf("TIDS=%v: swept (%v, %v) vs cold (%v, %v)", warm[i].TIDS, w.MTTSF, w.Ctotal, c.MTTSF, c.Ctotal)
		}
	}
	if patched != 0 {
		t.Errorf("Direct sweep patched %d of %d points, want none", patched, len(cfgs))
	}
}

// TestExploreDesignSpaceWarmStart asserts the design-space driver over
// Direct, spelled with WithWarmStart, returns the same point set as a full prepare per point, bit for
// bit, and patches nothing.
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
	warm, err := ExploreDesignSpace(cfg, space, WithWarmStart())
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
		if cold[i].MTTSF != warm[i].MTTSF || cold[i].Ctotal != warm[i].Ctotal {
			t.Errorf("point %d: swept (%v, %v) vs cold (%v, %v)", i, warm[i].MTTSF, warm[i].Ctotal, cold[i].MTTSF, cold[i].Ctotal)
		}
	}
	if patched != 0 {
		t.Errorf("Direct design space patched %d of %d points, want none", patched, len(cfgs))
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
