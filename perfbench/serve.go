package main

// serve_hot: a single-node server whose engine boots from a snapshot of a
// seeded 1024-point pool, answering warm lookups over three routes.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/service"
)

type serveInstance struct {
	ts     *httptest.Server
	eng    *engine.Engine
	client *service.Client
	hc     *http.Client
}

func runServeHot(rc *runCtx) error {
	pool := servePool(rc.seed)
	ops := newServeOps(rc.seed)
	snap := filepath.Join(rc.dir, "serve_hot.snapshot")
	var ref []*core.Result
	var snapBytes int64

	inst, closeFn, err := setup(rc, func(rep int) (*serveInstance, func(), error) {
		// Solve the pool, persist it, and boot the server's engine from
		// the snapshot, the way a restarted daemon warm-starts.
		solver := engine.New(engine.Options{})
		res, err := evalAll(rc, solver, pool)
		if err != nil {
			return nil, nil, fmt.Errorf("solving the pool: %w", err)
		}
		// The reference is the solve the server's snapshot holds: the
		// program's absorption split is summed in map order, so two solves
		// of one point may differ in its last bits.
		ref = res
		entries := solver.SnapshotEntries()
		if err := rc.spanned("persist.save", func() error { return persist.SaveRotating(snap, entries) }); err != nil {
			return nil, nil, err
		}
		eng := engine.New(engine.Options{})
		var loaded int
		err = rc.spanned("persist.load", func() error {
			var err error
			loaded, _, err = persist.WarmStartAuto(eng, snap, nil)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if loaded != len(pool) {
			return nil, nil, fmt.Errorf("snapshot restored %d of %d pool entries", loaded, len(pool))
		}
		if fi, err := os.Stat(snap); err == nil {
			snapBytes = fi.Size()
		}
		svc := service.New(service.Options{Backend: backendFor(rc, "", eng)})
		ts := httptest.NewServer(handlerFor(rc, "", svc))
		hc := httpClient(rc, rc.def.Clients)
		inst := &serveInstance{ts: ts, eng: eng, client: service.NewClient(ts.URL, hc), hc: hc}
		// Warm the connections and the handler paths once per route.
		for _, kind := range []string{kindEval, kindBatch, kindNDJSON} {
			if _, err := serveCall(context.Background(), inst.client, kind, pool[:servePointsFor(kind)]); err != nil {
				ts.Close()
				return nil, nil, fmt.Errorf("warm-up %s: %w", kind, err)
			}
		}
		return inst, ts.Close, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	kinds := map[string]int64{}
	var top10, points int64
	var mu sync.Mutex
	statsBefore := inst.eng.Stats()
	rc.closedLoop(rc.def.Clients, func(ctx context.Context, c, i int) (time.Duration, int, error) {
		op := ops.take(i)
		cfgs := make([]core.Config, len(op.Idx))
		for j, idx := range op.Idx {
			cfgs[j] = pool[idx]
		}
		var got []*core.Result
		lat, err := rc.timed(ctx, func(ctx context.Context) error {
			var err error
			got, err = serveCall(ctx, inst.client, op.Kind, cfgs)
			return err
		})
		if err != nil {
			return lat, 0, err
		}
		for j, idx := range op.Idx {
			rc.checked.Add(1)
			if !sameResult(got[j], ref[idx]) {
				rc.wrong.Add(1)
			}
		}
		mu.Lock()
		kinds[op.Kind]++
		top10 += int64(op.Top10)
		points += int64(len(op.Idx))
		mu.Unlock()
		return lat, len(op.Idx), nil
	}, rc.scraper(func() (time.Duration, error) { return rc.scrapeMetrics(inst.hc, inst.ts.URL) }))

	total := float64(kinds[kindEval] + kinds[kindBatch] + kinds[kindNDJSON])
	rc.shares = map[string]float64{
		"route_eval":         float64(kinds[kindEval]) / total,
		"route_batch":        float64(kinds[kindBatch]) / total,
		"route_batch_ndjson": float64(kinds[kindNDJSON]) / total,
		"top10_zipf_points":  float64(top10) / float64(points),
	}
	rc.layers = engineLayers(countsOf(inst.eng.Stats()).sub(countsOf(statsBefore)))
	rc.layers["persist.snapshot_mb"] = float64(snapBytes) / (1 << 20)
	return nil
}

// serveCall sends cfgs over the route kind names and returns the answers
// in point order.
func serveCall(ctx context.Context, client *service.Client, kind string, cfgs []core.Config) ([]*core.Result, error) {
	switch kind {
	case kindEval:
		res, err := client.Analyze(ctx, cfgs[0])
		return []*core.Result{res}, err
	case kindBatch:
		return client.EvalBatch(ctx, cfgs)
	default:
		res := make([]*core.Result, len(cfgs))
		err := client.EvalBatchStream(ctx, cfgs, func(line service.BatchStreamLine) error {
			if line.Error != "" {
				return fmt.Errorf("point %d: %s", line.Index, line.Error)
			}
			res[line.Index] = line.Result
			return nil
		})
		return res, err
	}
}
