package obs

import (
	"math"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter handle from many goroutines;
// run under -race this doubles as the data-race check for the lock-free
// recording path.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_concurrent_total", "t")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset: %d", got)
	}
}

// TestGaugeConcurrentAdd checks the CAS float accumulation loses nothing
// under contention.
func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "t")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("after Set(-3): %v", got)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) placement
// semantics: a value exactly at a bound lands in that bound's bucket, one
// ulp above spills to the next, and everything beyond the last bound
// lands only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "t", []float64{1, 2.5, 10})
	h.Observe(1)                    // at bound     -> bucket le=1
	h.Observe(math.Nextafter(1, 2)) // just above   -> bucket le=2.5
	h.Observe(2.5)                  // at bound     -> bucket le=2.5
	h.Observe(10)                   // at last      -> bucket le=10
	h.Observe(11)                   // beyond       -> +Inf only
	h.Observe(-1)                   // below first  -> bucket le=1
	cum, count, sum := h.snapshot()
	if want := []uint64{2, 4, 5, 6}; len(cum) != len(want) {
		t.Fatalf("cumulative buckets = %v", cum)
	} else {
		for i := range want {
			if cum[i] != want[i] {
				t.Fatalf("cumulative buckets = %v, want %v", cum, want)
			}
		}
	}
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	wantSum := 1 + math.Nextafter(1, 2) + 2.5 + 10 + 11 - 1
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	if h.Count() != 6 {
		t.Fatalf("Count() = %d", h.Count())
	}
}

// TestHistogramConcurrent checks observation counts survive contention.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist_conc", "t", []float64{0.5})
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w % 2)) // half at 0 (le=0.5), half at 1 (+Inf)
			}
		}(w)
	}
	wg.Wait()
	cum, count, _ := h.snapshot()
	if count != workers*perWorker {
		t.Fatalf("count = %d, want %d", count, workers*perWorker)
	}
	if cum[0] != workers*perWorker/2 || cum[1] != workers*perWorker {
		t.Fatalf("cumulative = %v", cum)
	}
}

// TestRegistryIdempotentHandles checks same (name, labels) returns the
// same instrument, and distinct label sets get distinct series.
func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "t", L("be", "x"))
	b := r.Counter("test_total", "t", L("be", "x"))
	c := r.Counter("test_total", "t", L("be", "y"))
	if a != b {
		t.Fatal("same name+labels returned distinct handles")
	}
	if a == c {
		t.Fatal("distinct labels returned the same handle")
	}
	a.Inc()
	if c.Value() != 0 {
		t.Fatal("label series share state")
	}
}

// TestRegistryKindConflictPanics pins the fail-fast on re-registering a
// name as a different kind.
func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_kind", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("test_kind", "t")
}

// TestStageSpanDisarmed checks SetArmed(false) makes spans inert and
// SetArmed(true) restores recording.
func TestStageSpanDisarmed(t *testing.T) {
	defer SetArmed(true)
	base := stageHist[StageSolve].Count()
	SetArmed(false)
	sp := StartStage(StageSolve)
	sp.End()
	if got := stageHist[StageSolve].Count(); got != base {
		t.Fatalf("disarmed span recorded (count %d -> %d)", base, got)
	}
	SetArmed(true)
	sp = StartStage(StageSolve)
	sp.End()
	if got := stageHist[StageSolve].Count(); got != base+1 {
		t.Fatalf("armed span did not record (count %d -> %d)", base, got)
	}
}

// TestRecordingAllocFree pins the hot-path budget: recording into
// pre-registered instruments and running a span must not allocate.
func TestRecordingAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_alloc_total", "t")
	g := r.Gauge("test_alloc_gauge", "t")
	h := r.Histogram("test_alloc_hist", "t", LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1.5) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp := StartStage(StageSolve)
		sp.End()
	}); n != 0 {
		t.Fatalf("span start/end allocates %v/op", n)
	}
}
