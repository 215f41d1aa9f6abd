package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// stripeConfig returns a tiny, fast-to-evaluate configuration.
func stripeConfig(tids float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.N = 6
	cfg.TIDS = tids
	return cfg
}

// TestShardScaling pins the striping policy: tiny caches keep exact global
// LRU semantics in one shard, the default cache stripes across 16.
func TestShardScaling(t *testing.T) {
	if got := len(New(Options{CacheSize: 2}).shards); got != 1 {
		t.Fatalf("CacheSize 2: %d shards, want 1", got)
	}
	if got := len(New(Options{}).shards); got != maxShards {
		t.Fatalf("default CacheSize: %d shards, want %d", got, maxShards)
	}
}

// TestStripedCacheConcurrent hammers a striped engine with concurrent
// repeats of a small config set and checks that every result is served
// consistently and the atomic accounting stays coherent.
func TestStripedCacheConcurrent(t *testing.T) {
	e := New(Options{CacheSize: 4096})
	if len(e.shards) != maxShards {
		t.Fatalf("want a striped engine, got %d shards", len(e.shards))
	}
	grid := []float64{30, 60, 120, 240, 480}
	want := make(map[float64]float64, len(grid))
	for _, tids := range grid {
		r, err := e.Eval(stripeConfig(tids))
		if err != nil {
			t.Fatal(err)
		}
		want[tids] = r.MTTSF
	}
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tids := grid[(seed+r)%len(grid)]
				res, err := e.Eval(stripeConfig(tids))
				if err != nil {
					errs <- err
					return
				}
				if res.MTTSF != want[tids] {
					t.Errorf("TIDS %v: MTTSF %v, want %v", tids, res.MTTSF, want[tids])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Evals != uint64(len(grid)) {
		t.Fatalf("evals = %d, want %d (all repeats must hit)", st.Evals, len(grid))
	}
	if total := st.Hits + st.Misses; total != uint64(len(grid)+workers*rounds) {
		t.Fatalf("lookups = %d, want %d", total, len(grid)+workers*rounds)
	}
}

// TestPreparedByteBudget pins the family store's byte budget: with a
// budget that holds either of two families' anchors but not both, the
// second family evicts the first, and an anchor larger than the whole
// budget is not admitted.
func TestPreparedByteBudget(t *testing.T) {
	a, b := stripeConfig(60), stripeConfig(60)
	b.N = 7
	var sizes [2]int64
	for i, c := range []core.Config{a, b} {
		p, err := core.Prepare(c)
		if err != nil {
			t.Fatal(err)
		}
		if sizes[i] = p.SizeBytes(); sizes[i] <= 0 {
			t.Fatalf("SizeBytes = %d, want > 0", sizes[i])
		}
	}
	budget := sizes[0] + sizes[1] - 1

	e := New(Options{PreparedCacheBytes: budget})
	if _, err := e.Prepared(a); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PreparedEntries != 1 || st.PreparedBytes != sizes[0] {
		t.Fatalf("after the first family: %d entries / %d bytes, want 1 / %d", st.PreparedEntries, st.PreparedBytes, sizes[0])
	}
	if _, err := e.Prepared(b); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.PreparedEntries != 1 || familyPool(e, a) != nil {
		t.Fatalf("after the second family: %d entries, want 1 (byte budget must evict the first)", st.PreparedEntries)
	}
	if st.PreparedBytes > budget {
		t.Fatalf("PreparedBytes %d exceeds budget %d", st.PreparedBytes, budget)
	}

	// An anchor larger than the whole budget is rejected outright instead
	// of flushing the rest of the store on its way through.
	e3 := New(Options{PreparedCacheBytes: sizes[0] / 2})
	if _, err := e3.Prepared(a); err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); st.PreparedEntries != 0 || st.PreparedBytes != 0 {
		t.Fatalf("oversize family admitted: %d entries / %d bytes", st.PreparedEntries, st.PreparedBytes)
	}
}
