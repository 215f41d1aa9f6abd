package main

// The run harness shared by every workload: repeated set-up, the closed
// client loop, the live-heap sampler and the answer-check tallies.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/obs"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 3

// runCtx carries one run's settings and collects what it measures.
type runCtx struct {
	def     workloadDef
	seed    uint64
	seconds time.Duration
	dir     string  // scratch directory inside .bench_build, removed at exit
	tr      *tracer // nil on untraced runs: no wrapper is installed at all

	setupTimes []float64
	loop       loopStats
	// checked counts answers compared against a reference; wrong counts
	// mismatches, failedOps the ops that returned an error.
	checked, wrong, failedOps atomic.Int64
	shares                    map[string]float64
	// layers holds the per-layer values a workload measures itself (counter
	// deltas over the timed phase), keyed by metric name.
	layers map[string]float64
	// scrapeTime sums the once-a-second GET /metrics calls of the timed
	// phase (not ops, and not in the latency samples).
	scrapeTime atomic.Int64
}

// setup runs build setupReps times, timing each, tears down all but the
// last instance and returns it with its teardown.
func setup[T any](rc *runCtx, build func(rep int) (T, func(), error)) (T, func(), error) {
	var inst T
	var closeFn func()
	for rep := 0; rep < setupReps; rep++ {
		if closeFn != nil {
			closeFn()
		}
		rc.tr.setPhase(phaseSetup)
		t0 := time.Now()
		v, c, err := build(rep)
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		rc.setupTimes = append(rc.setupTimes, time.Since(t0).Seconds())
		inst, closeFn = v, c
	}
	return inst, closeFn, nil
}

// loopStats is the timed phase's outcome.
type loopStats struct {
	ops       []opSample // completed ops
	attempted int64
	wall      time.Duration
	liveHeap  float64 // median live-heap reading, bytes
	counters  counterDelta
}

// opSample is one completed op: its latency and the design points it
// answered.
type opSample struct {
	lat    time.Duration
	points int
}

// opFunc performs op i for client c and returns the latency of the call it
// timed and the design points answered. Generating inputs and checking
// answers happen outside the timed call.
type opFunc func(ctx context.Context, c, i int) (lat time.Duration, points int, err error)

// closedLoop runs clients goroutines that each send their next op only after
// the previous one returned, until rc.seconds have passed. Op indices come
// from one shared counter, so the op sequence is fixed by the seed. between
// runs on the client's goroutine after each op, outside the latency sample.
func (rc *runCtx) closedLoop(clients int, op opFunc, between func(c int)) {
	// Collect the set-up's garbage first, so the live-heap samples see what
	// the measured instance retains.
	runtime.GC()
	rc.tr.setPhase(phaseTimed)
	ctx := context.Background()
	heap := startHeapSampler()
	before := readCounters()
	var next atomic.Int64
	done := make([][]opSample, clients)
	start := time.Now()
	deadline := start.Add(rc.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				lat, n, err := op(ctx, c, i)
				if err != nil {
					rc.failedOps.Add(1)
				} else {
					done[c] = append(done[c], opSample{lat: lat, points: n})
				}
				if between != nil {
					between(c)
				}
			}
		}()
	}
	wg.Wait()
	rc.loop = loopStats{
		ops:       slices.Concat(done...),
		attempted: next.Load(),
		wall:      time.Since(start),
		liveHeap:  heap.stop(),
		counters:  readCounters().sub(before),
	}
	rc.tr.setPhase(phaseCheck)
}

// counterDelta holds the process-global solver counters the program
// exports through ctmc's and core's public accessors.
type counterDelta struct {
	solves, iters, patched, refactorizations, repreps uint64
}

func readCounters() counterDelta {
	return counterDelta{
		solves:           ctmc.SolveCount(),
		iters:            ctmc.SolveIterations(),
		patched:          ctmc.PatchedSolves(),
		refactorizations: ctmc.Refactorizations(),
		repreps:          core.StructuralRepreps(),
	}
}

func (a counterDelta) sub(b counterDelta) counterDelta {
	return counterDelta{
		solves:           a.solves - b.solves,
		iters:            a.iters - b.iters,
		patched:          a.patched - b.patched,
		refactorizations: a.refactorizations - b.refactorizations,
		repreps:          a.repreps - b.repreps,
	}
}

// heapSampler reads the live heap (bytes marked live by the most recent
// GC) every 100 ms and reports the median reading: the heap the measured
// instance holds, not the garbage of one unlucky GC cycle.
type heapSampler struct {
	done    chan struct{}
	samples chan []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		samples := []float64{float64(readLiveHeap())}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				h.samples <- append(samples, float64(readLiveHeap()))
				return
			case <-tick.C:
				samples = append(samples, float64(readLiveHeap()))
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the median reading in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	return median(<-h.samples)
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd derives the end-to-end metrics from the timed phase.
func (rc *runCtx) endToEnd() map[string]float64 {
	ls := rc.loop
	sorted := make([]time.Duration, len(ls.ops))
	points := 0
	for i, o := range ls.ops {
		sorted[i] = o.lat
		points += o.points
	}
	slices.Sort(sorted)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]float64{
		"setup_s":         median(rc.setupTimes),
		"ops_per_s":       float64(len(ls.ops)) / ls.wall.Seconds(),
		"points_per_s":    float64(points) / ls.wall.Seconds(),
		"latency_p50_ms":  ms(percentile(sorted, 50)),
		"latency_tail_ms": ms(percentile(sorted, rc.def.TailPct)),
		"live_heap_mb":    ls.liveHeap / (1 << 20),
	}
}

// scrapeEvery is the /metrics scrape period of the server workloads.
const scrapeEvery = time.Second

// scraper returns a between-hook that, on client 0, scrapes once per
// scrapeEvery with fn and sums the time spent.
func (rc *runCtx) scraper(fn func() (time.Duration, error)) func(c int) {
	last := time.Now()
	return func(c int) {
		if c != 0 || time.Since(last) < scrapeEvery {
			return
		}
		last = time.Now()
		d, err := fn()
		if err != nil {
			rc.wrong.Add(1)
			return
		}
		rc.checked.Add(1)
		rc.scrapeTime.Add(int64(d))
	}
}

// httpClient is the bench's client side: one connection per client
// goroutine, kept alive, and on traced runs the span header forwarder.
func httpClient(rc *runCtx, clients int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	if rc.tr == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: clientTransport{base: tr}}
}

// scrapeMetrics GETs /metrics and validates the exposition; only the GET
// is timed.
func (rc *runCtx) scrapeMetrics(hc *http.Client, base string) (time.Duration, error) {
	var body []byte
	ctx := context.Background()
	if rc.tr != nil {
		var sp *live
		ctx, sp = rc.tr.begin(ctx, "client.scrape", "")
		defer sp.end()
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return d, obs.ValidateExposition(body)
}

// engineCounts is the part of engine.Stats the per-layer metrics read.
type engineCounts struct{ hits, misses, evals, evictions uint64 }

func countsOf(s engine.Stats) engineCounts {
	return engineCounts{s.Hits, s.Misses, s.Evals, s.Evictions}
}

func (a engineCounts) add(b engineCounts) engineCounts {
	return engineCounts{a.hits + b.hits, a.misses + b.misses, a.evals + b.evals, a.evictions + b.evictions}
}

func (a engineCounts) sub(b engineCounts) engineCounts {
	return engineCounts{a.hits - b.hits, a.misses - b.misses, a.evals - b.evals, a.evictions - b.evictions}
}

// engineLayers turns engine counter deltas into the engine's per-layer
// metrics.
func engineLayers(d engineCounts) map[string]float64 {
	ratio := 0.0
	if d.hits+d.misses > 0 {
		ratio = float64(d.hits) / float64(d.hits+d.misses)
	}
	return map[string]float64{
		"engine.hit_ratio": ratio,
		"engine.evals":     float64(d.evals),
		"engine.evictions": float64(d.evictions),
	}
}
