package main

// sweep_cold: the library path. One study at a time, each on a fresh
// engine installed as core's default evaluator, through core.SweepTIDS with
// no option, WithWarmStart or WithIncremental.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// warmupPaths are the sweep paths each set-up repetition warms, once each
// at N=40 and m=5, so every repetition does the same amount of work.
var warmupPaths = []string{optDefault, optWarm, optIncremental}

// runStudy sweeps st on a fresh engine and returns the points and the
// engine's counters.
func runStudy(rc *runCtx, ctx context.Context, st sweepStudy) ([]core.SweepPoint, engineCounts, error) {
	eng := engine.New(engine.Options{})
	var ev core.Evaluator = eng
	if rc.tr != nil {
		ev = &tracedEvaluator{t: rc.tr, eng: eng, ctx: ctx}
	}
	prev := core.SetDefaultEvaluator(ev)
	defer core.SetDefaultEvaluator(prev)
	var opts []core.SweepOption
	switch st.Option {
	case optWarm:
		opts = append(opts, core.WithWarmStart())
	case optIncremental:
		opts = append(opts, core.WithIncremental())
	}
	pts, err := core.SweepTIDS(st.Base, sweepGrid, opts...)
	return pts, countsOf(eng.Stats()), err
}

func runSweepCold(rc *runCtx) error {
	studies := newSweepStudies(rc.seed, streamOps)
	warm := newSweepStudies(rc.seed, streamWarmup)
	_, closeFn, err := setup(rc, func(rep int) (struct{}, func(), error) {
		// Warm the process: one N=40 study down each sweep path.
		for k, path := range warmupPaths {
			st := warm.take(rep*len(warmupPaths) + k)
			st.Base.N, st.Base.M, st.Option = 40, 5, path
			if _, _, err := runStudy(rc, context.Background(), st); err != nil {
				return struct{}{}, nil, fmt.Errorf("warm-up study: %w", err)
			}
		}
		return struct{}{}, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	off := sampleOffset(rc.seed, 8)
	type sample struct {
		st  sweepStudy
		pts []core.SweepPoint
	}
	var samples []sample
	var ec engineCounts
	optCount := map[string]int{}
	optTime := map[string]time.Duration{}
	nCount := map[int]int{}
	// One study at a time: the loop's single client is the only goroutine
	// touching these.
	rc.closedLoop(rc.def.Clients, func(ctx context.Context, c, i int) (time.Duration, int, error) {
		st := studies.take(i)
		var pts []core.SweepPoint
		var counts engineCounts
		lat, err := rc.timed(ctx, func(ctx context.Context) error {
			var err error
			pts, counts, err = runStudy(rc, ctx, st)
			return err
		})
		if err != nil {
			return lat, 0, err
		}
		ec = ec.add(counts)
		optCount[st.Option]++
		optTime[st.Option] += lat
		nCount[st.Base.N]++
		if i%8 == off {
			samples = append(samples, sample{st, pts})
		}
		return lat, len(pts), nil
	}, nil)

	// A seeded 1-in-8 sample of studies, re-run on the no-option path.
	for _, s := range samples {
		ref := s
		ref.st.Option = optDefault
		want, _, err := runStudy(rc, context.Background(), ref.st)
		rc.checked.Add(1)
		if err != nil || len(want) != len(s.pts) {
			rc.wrong.Add(1)
			continue
		}
		for j := range want {
			if !closeResult(s.pts[j].Result, want[j].Result) {
				rc.wrong.Add(1)
				break
			}
		}
	}

	studiesRun := float64(optCount[optDefault] + optCount[optWarm] + optCount[optIncremental])
	rc.shares = map[string]float64{
		"option_default":     float64(optCount[optDefault]) / studiesRun,
		"option_warm":        float64(optCount[optWarm]) / studiesRun,
		"option_incremental": float64(optCount[optIncremental]) / studiesRun,
		"n40":                float64(nCount[40]) / studiesRun,
		"n50":                float64(nCount[50]) / studiesRun,
		"n60":                float64(nCount[60]) / studiesRun,
	}
	rc.layers = engineLayers(ec)
	perStudy := func(o string) float64 {
		if optCount[o] == 0 {
			return 0
		}
		return optTime[o].Seconds() / float64(optCount[o])
	}
	if d, w, inc := perStudy(optDefault), perStudy(optWarm), perStudy(optIncremental); w > 0 && inc > 0 {
		rc.layers["core.warm_speedup"] = d / w
		rc.layers["core.incremental_speedup"] = d / inc
	}
	return nil
}
