package obs

import (
	"sync/atomic"
	"time"
)

// Stage names the pipeline phases of the paper's workflow. Each stage has
// one wall-time histogram series in the Default registry,
// repro_stage_duration_seconds{stage="..."}.
type Stage int

const (
	StageExplore  Stage = iota // state-space exploration (Model.Explore)
	StageAssemble              // generator-matrix assembly (ctmc.FromGraph)
	StageSolve                 // one transient linear solve (ctmc solveVia)
	StageSweep                 // chained TIDS parameter sweep
	StageFrontier              // adaptive Pareto-frontier refinement
	numStages
)

func (s Stage) String() string {
	switch s {
	case StageExplore:
		return "explore"
	case StageAssemble:
		return "assemble"
	case StageSolve:
		return "solve"
	case StageSweep:
		return "sweep"
	case StageFrontier:
		return "frontier"
	default:
		return "unknown"
	}
}

// armed gates the hot-path timing instrumentation (spans, per-backend
// solve histograms). Counters are never gated — they predate obs and are
// load-bearing for /v1/stats — but timers cost two clock reads per solve.
// Arming must not add an allocation: ctmc's
// TestArmedSolveAllocatesLikeDisarmed pins that. Armed by default.
var armed atomic.Bool

func init() { armed.Store(true) }

// Armed reports whether timing instrumentation is on.
func Armed() bool { return armed.Load() }

// SetArmed enables or disables timing instrumentation process-wide.
func SetArmed(on bool) { armed.Store(on) }

// stageHist holds the per-stage duration series, indexed by Stage.
var stageHist [numStages]*Histogram

func init() {
	for s := Stage(0); s < numStages; s++ {
		stageHist[s] = defaultRegistry.Histogram(
			"repro_stage_duration_seconds",
			"Wall time per pipeline stage (explore/assemble/solve/sweep/frontier).",
			LatencyBuckets, L("stage", s.String()))
	}
}

// Span is an in-progress stage timing. It is a value type — starting and
// ending a span performs no allocation, so spans are safe on the solve
// hot path's 0 allocs/op budget.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartStage begins timing a stage. When instrumentation is disarmed the
// returned span is inert and End is a no-op.
func StartStage(s Stage) Span {
	if !armed.Load() {
		return Span{}
	}
	return Span{h: stageHist[s], start: time.Now()}
}

// End records the elapsed time into the stage's histogram.
func (sp Span) End() {
	if sp.h == nil {
		return
	}
	sp.h.Observe(time.Since(sp.start).Seconds())
}

// ObserveStage records an externally measured duration for a stage — for
// call sites that already hold a duration and don't need a Span.
func ObserveStage(s Stage, seconds float64) {
	if s < 0 || s >= numStages {
		return
	}
	stageHist[s].Observe(seconds)
}
