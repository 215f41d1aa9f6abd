package main

// frontier_cold: POST /v1/frontier on a single-node server, a fresh seeded
// base per op, so every op pays the adaptive loop's solves.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
)

// frontierWarmups is the number of frontiers each set-up repetition sends.
const frontierWarmups = 6

func runFrontierCold(rc *runCtx) error {
	bases := newFrontierBases(rc.seed, streamOps)
	warm := newFrontierBases(rc.seed, streamWarmup)
	space := frontierSpace()

	inst, closeFn, err := setup(rc, func(rep int) (*serveInstance, func(), error) {
		eng := engine.New(engine.Options{})
		svc := service.New(service.Options{Backend: backendFor(rc, "", eng)})
		ts := httptest.NewServer(handlerFor(rc, "", svc))
		hc := httpClient(rc, rc.def.Clients)
		inst := &serveInstance{ts: ts, eng: eng, client: service.NewClient(ts.URL, hc), hc: hc}
		// Warm up with two frontiers per N (the bases draw N in blocks of
		// three).
		for k := 0; k < frontierWarmups; k++ {
			req := service.FrontierRequest{Config: warm.take(rep*frontierWarmups + k), Space: &space}
			if _, _, err := inst.client.Frontier(context.Background(), req, nil); err != nil {
				ts.Close()
				return nil, nil, fmt.Errorf("warm-up frontier: %w", err)
			}
		}
		return inst, ts.Close, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	off := sampleOffset(rc.seed, 32)
	type sample struct {
		base     core.Config
		frontier []core.DesignPoint
	}
	var mu sync.Mutex
	var samples []sample
	var evals, ops int
	nCount := map[int]int{}
	statsBefore := inst.eng.Stats()
	rc.closedLoop(rc.def.Clients, func(ctx context.Context, c, i int) (time.Duration, int, error) {
		base := bases.take(i)
		req := service.FrontierRequest{Config: base, Space: &space}
		var frontier []core.DesignPoint
		var n int
		lat, err := rc.timed(ctx, func(ctx context.Context) error {
			var err error
			frontier, n, err = inst.client.Frontier(ctx, req, nil)
			return err
		})
		if err != nil {
			return lat, 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		evals += n
		ops++
		nCount[base.N]++
		if i%32 == off {
			samples = append(samples, sample{base, frontier})
		}
		return lat, space.Size(), nil
	}, rc.scraper(func() (time.Duration, error) { return rc.scrapeMetrics(inst.hc, inst.ts.URL) }))
	rc.layers = engineLayers(countsOf(inst.eng.Stats()).sub(countsOf(statsBefore)))

	// A seeded 1-in-32 sample: replay the adaptive loop on a fresh engine,
	// then evaluate the whole grid through it; the served frontier must be
	// exactly the full grid's Pareto frontier.
	core.ForEachIndexed(len(samples), rc.def.Clients, func(k int) {
		s := samples[k]
		rc.checked.Add(1)
		e := engine.New(engine.Options{})
		if _, _, err := e.AdaptiveFrontier(context.Background(), s.base, engine.FrontierOptions{Space: space}, nil); err != nil {
			rc.wrong.Add(1)
			return
		}
		cfgs := space.Enumerate(s.base)
		results, err := evalAll(rc, e, cfgs)
		if err != nil || !sameFrontier(s.frontier, gridFrontier(cfgs, results)) {
			rc.wrong.Add(1)
		}
	})

	grid := float64(ops * space.Size())
	rc.shares = map[string]float64{
		"n20":        float64(nCount[20]) / float64(ops),
		"n25":        float64(nCount[25]) / float64(ops),
		"n30":        float64(nCount[30]) / float64(ops),
		"evals_grid": float64(evals) / grid,
	}
	rc.layers["engine.frontier_eval_ratio"] = float64(evals) / grid
	return nil
}
