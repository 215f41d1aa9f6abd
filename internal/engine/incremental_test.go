package engine

import (
	"testing"

	"repro/internal/core"
)

// TestStatsIncrementalCounters pins the /v1/stats satellite: the engine
// snapshot surfaces the process-global incremental counters, and a batch
// of rate-only points of one family moves the patched-solve counter.
func TestStatsIncrementalCounters(t *testing.T) {
	e := New(Options{})
	before := e.Stats()
	var cfgs []core.Config
	for _, tids := range []float64{7, 33, 77, 333} {
		cfg := testConfig()
		cfg.TIDS = tids
		cfgs = append(cfgs, cfg)
	}
	if _, err := e.EvalBatch(cfgs); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.PatchedSolves <= before.PatchedSolves {
		t.Errorf("patched-solve counter did not advance (%d -> %d)", before.PatchedSolves, after.PatchedSolves)
	}
}
