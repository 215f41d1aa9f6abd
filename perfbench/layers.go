package main

// Per-layer metrics of a traced run, derived from the spans and from the
// counter deltas the workloads and the loop recorded.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// perLayer computes every metric in perLayerDefs.
func (rc *runCtx) perLayer(stats map[string]*spanStats) map[string]float64 {
	get := func(name string) *spanStats {
		if s := stats[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	perCall := func(name string, unit time.Duration) float64 {
		s := get(name)
		if s.count == 0 {
			return 0
		}
		return float64(s.total) / float64(s.count) / float64(unit)
	}
	var opLatency time.Duration
	for _, o := range rc.loop.ops {
		opLatency += o.lat
	}
	share := func(d time.Duration) float64 {
		if opLatency <= 0 || d <= 0 {
			return 0
		}
		return float64(d) / float64(opLatency)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	req := get("service.request")
	wire := time.Duration(0)
	if req.timedCount > 0 {
		wire = opLatency - req.timedTotal
	}
	peer := get("cluster.peer_solve")
	explore := get("spn.explore")
	cd := rc.loop.counters
	var setupTotal float64
	for _, s := range rc.setupTimes {
		setupTotal += s
	}

	m := map[string]float64{
		"service.requests":             float64(req.timedCount),
		"service.self_share":           share(req.timedSelf + get("cluster.peer_server").timedSelf),
		"service.wire_share":           share(wire),
		"obs.scrape_share":             ratio(float64(rc.scrapeTime.Load()), float64(rc.def.Clients)*float64(rc.loop.wall)),
		"engine.eval_ms_per_call":      perCall("engine.eval", time.Millisecond),
		"engine.lookup_share":          share(get("engine.cached").timedTotal),
		"cluster.hop_share":            share(peer.timedTotal - peer.timedChildren),
		"cluster.peer_solves":          float64(peer.timedCount),
		"cluster.fills":                float64(get("cluster.fill").timedCount),
		"core.build_model_ms_per_call": perCall("core.build_model", time.Millisecond),
		"core.analyze_us_per_call":     perCall("core.analyze", time.Microsecond),
		"core.structural_repreps":      float64(cd.repreps),
		"spn.explore_ms_per_call":      perCall("spn.explore", time.Millisecond),
		"spn.states_per_s":             ratio(float64(explore.n), explore.total.Seconds()),
		"ctmc.assemble_ms_per_call":    perCall("ctmc.assemble", time.Millisecond),
		"ctmc.solve_ms_per_call":       perCall("ctmc.solve", time.Millisecond),
		"ctmc.solves":                  float64(cd.solves),
		"ctmc.solve_iters_per_solve":   ratio(float64(cd.iters), float64(cd.solves)),
		"ctmc.patched_solves":          float64(cd.patched),
		"ctmc.refactorizations":        float64(cd.refactorizations),
		"persist.setup_share":          ratio((get("persist.save").total + get("persist.load").total).Seconds(), setupTotal),
	}
	for k, v := range rc.layers {
		m[k] = v
	}
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = m[d.Name]
	}
	return out
}

// stageNames are the program's own stage histograms the traced run
// cross-checks its outside timings against.
var stageNames = map[string]string{
	"explore":  "spn.explore",
	"assemble": "ctmc.assemble",
	"solve":    "ctmc.solve",
}

// stageSums reads the program's repro_stage_duration_seconds sums.
func stageSums() map[string]float64 {
	out := make(map[string]float64, len(stageNames))
	for stage := range stageNames {
		h := obs.Default().Histogram("repro_stage_duration_seconds", "", obs.LatencyBuckets, obs.L("stage", stage))
		out[stage] = h.Sum()
	}
	return out
}

// printStageCrossCheck prints the program's stage sums over the traced run
// next to the bench's own spans. The program also times work the bench
// cannot see from outside (solves inside the engine's frontier loop and
// the chained sweep drivers), so a gap is a warning, not a failure.
func printStageCrossCheck(w io.Writer, before, after map[string]float64, stats map[string]*spanStats) {
	fmt.Fprintln(w, "\nstage cross-check (program's repro_stage_duration_seconds vs bench spans, whole run):")
	stages := make([]string, 0, len(stageNames))
	for s := range stageNames {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		prog := after[stage] - before[stage]
		var bench float64
		if s := stats[stageNames[stage]]; s != nil {
			bench = s.total.Seconds()
		}
		note := ""
		if d := math.Max(prog, bench); d > 0 && math.Abs(prog-bench)/d > 0.25 {
			note = "  WARNING: >25% apart"
		}
		fmt.Fprintf(w, "  %-9s program %9.3f s   bench %9.3f s%s\n", stage, prog, bench, note)
	}
}

// printSpanTable prints calls, mean and mean self time per span name.
func printSpanTable(w io.Writer, stats map[string]*spanStats) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nspans (whole run; self = duration minus the union of child spans):")
	fmt.Fprintf(w, "  %-24s %10s %14s %14s\n", "span", "calls", "us/call", "self us/call")
	for _, n := range names {
		s := stats[n]
		per := func(d time.Duration) float64 { return float64(d) / float64(s.count) / 1e3 }
		fmt.Fprintf(w, "  %-24s %10d %14.2f %14.2f\n", n, s.count, per(s.total), per(s.self))
	}
}
