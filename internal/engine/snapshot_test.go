package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSnapshotRoundTrip pins the warm-start contract end to end in
// process: export a populated cache, restore it into a fresh engine, and
// replay the same grid — every point must be a hit (zero evaluations) with
// exactly the original Results.
func TestSnapshotRoundTrip(t *testing.T) {
	e1 := New(Options{})
	base := testConfig()
	grid := []float64{30, 60, 120}
	want := make(map[float64]*core.Result, len(grid))
	for _, tids := range grid {
		cfg := base
		cfg.TIDS = tids
		res, err := e1.Eval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[tids] = res
	}

	entries := e1.SnapshotEntries()
	if len(entries) != len(grid) {
		t.Fatalf("exported %d entries, want %d", len(entries), len(grid))
	}

	e2 := New(Options{})
	if admitted := e2.RestoreEntries(entries); admitted != len(grid) {
		t.Fatalf("restored %d entries, want %d", admitted, len(grid))
	}
	if st := e2.Stats(); st.Entries != len(grid) {
		t.Fatalf("restored engine holds %d entries, want %d", st.Entries, len(grid))
	}
	for _, tids := range grid {
		cfg := base
		cfg.TIDS = tids
		res, err := e2.Eval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MTTSF != want[tids].MTTSF || res.Ctotal != want[tids].Ctotal {
			t.Fatalf("TIDS=%v: restored result (MTTSF %v) differs from original (%v)",
				tids, res.MTTSF, want[tids].MTTSF)
		}
	}
	st := e2.Stats()
	if st.Evals != 0 || st.Hits != uint64(len(grid)) {
		t.Fatalf("replay on restored engine: %+v, want %d hits and 0 evals", st, len(grid))
	}

	// A second restore of the same entries admits nothing: live results
	// are never clobbered by an older snapshot.
	if admitted := e2.RestoreEntries(entries); admitted != 0 {
		t.Fatalf("re-restore admitted %d entries, want 0", admitted)
	}
}

// TestRestoreObeysLRUBounds pins that warm-loading more entries than the
// cache holds keeps only the most recently used tail instead of growing
// unbounded.
func TestRestoreObeysLRUBounds(t *testing.T) {
	// CacheSize 64 keeps e1 single-sharded, so the export order is the
	// exact global recency order (striped caches only preserve recency
	// within each shard).
	e1 := New(Options{CacheSize: 64})
	base := testConfig()
	for _, tids := range []float64{30, 60, 120, 240} {
		cfg := base
		cfg.TIDS = tids
		if _, err := e1.Eval(cfg); err != nil {
			t.Fatal(err)
		}
	}
	small := New(Options{CacheSize: 2})
	small.RestoreEntries(e1.SnapshotEntries())
	if st := small.Stats(); st.Entries != 2 {
		t.Fatalf("bounded engine holds %d restored entries, want 2", st.Entries)
	}
	// The entries that survived are the most recently used of the export
	// order: TIDS 120 and 240.
	cfg := base
	cfg.TIDS = 240
	if _, err := small.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Hits != 1 || st.Evals != 0 {
		t.Fatalf("most recent entry not retained: %+v", st)
	}
}

// TestSchemaFingerprintIsStable pins the digest's determinism and shape;
// the cross-process guarantees (stale snapshots rejected) live in
// internal/persist's tests.
func TestSchemaFingerprintIsStable(t *testing.T) {
	a, b := SchemaFingerprint(), SchemaFingerprint()
	if a != b {
		t.Fatalf("SchemaFingerprint is not deterministic: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "v2:") || len(a) != len("v2:")+16 {
		t.Fatalf("SchemaFingerprint %q, want \"v2:\" + 16 hex digits", a)
	}
}

// TestEvalContextCanceledBeforeStart pins that a canceled context stops a
// fresh evaluation before any model work, while cached results are still
// served (a hit costs nothing, and the caller asked for exactly that
// point).
func TestEvalContextCanceledBeforeStart(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.EvalContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("EvalContext on canceled context: err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Evals != 0 {
		t.Fatalf("canceled EvalContext performed %d evals, want 0", st.Evals)
	}

	// Once cached (via a live context), even a canceled context is served.
	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalContext(ctx, cfg); err != nil {
		t.Fatalf("cached point not served under canceled context: %v", err)
	}
}

// TestEvalBatchContextCanceled pins that canceling a batch stops its
// remaining points: a pre-canceled context evaluates nothing and reports
// the cancellation for every point.
func TestEvalBatchContextCanceled(t *testing.T) {
	e := New(Options{})
	base := testConfig()
	cfgs := make([]core.Config, 4)
	for i, tids := range []float64{30, 60, 120, 240} {
		cfgs[i] = base
		cfgs[i].TIDS = tids
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.EvalBatchContext(ctx, cfgs)
	if err == nil {
		t.Fatal("canceled batch returned nil error")
	}
	if st := e.Stats(); st.Evals != 0 {
		t.Fatalf("canceled batch performed %d evals, want 0", st.Evals)
	}
}

// TestJoinInflight pins the slot-free join: with no evaluation underway
// it returns immediately (joined=false); while one is underway it waits
// and shares the outcome; once cached it serves the point directly.
func TestJoinInflight(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()

	if _, joined, err := e.JoinInflight(context.Background(), cfg); joined || err != nil {
		t.Fatalf("JoinInflight on idle engine = (joined=%v, err=%v), want (false, nil)", joined, err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.EvalWith(cfg, func() (*core.Prepared, error) {
			close(started)
			<-release
			return core.Prepare(cfg)
		})
		if err != nil {
			t.Errorf("computing caller failed: %v", err)
		}
	}()
	<-started

	joinRes := make(chan *core.Result, 1)
	go func() {
		res, joined, err := e.JoinInflight(context.Background(), cfg)
		if !joined || err != nil {
			t.Errorf("JoinInflight during evaluation = (joined=%v, err=%v), want (true, nil)", joined, err)
		}
		joinRes <- res
	}()
	time.Sleep(10 * time.Millisecond) // let the joiner block on the in-flight call
	close(release)
	wg.Wait()

	res := <-joinRes
	if res == nil {
		t.Fatal("join returned no result")
	}
	want, err := e.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MTTSF != want.MTTSF {
		t.Fatalf("joined MTTSF %v differs from cached %v", res.MTTSF, want.MTTSF)
	}
	// Completed point: JoinInflight now serves it as a hit.
	if r2, joined, err := e.JoinInflight(context.Background(), cfg); !joined || err != nil || r2.MTTSF != want.MTTSF {
		t.Fatalf("JoinInflight on cached point = (joined=%v, err=%v), want a served hit", joined, err)
	}
	if st := e.Stats(); st.Evals != 1 {
		t.Fatalf("engine performed %d evals, want 1 (join must never trigger a second evaluation)", st.Evals)
	}
}

// TestEvalContextAbandonsInflightWait pins that a caller waiting on
// someone else's in-flight evaluation can abandon the wait on
// cancellation without poisoning the shared outcome: the computing caller
// still completes, caches, and serves later Evals.
func TestEvalContextAbandonsInflightWait(t *testing.T) {
	e := New(Options{})
	cfg := testConfig()

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Holds the in-flight slot for cfg while blocked in prepare.
		_, err := e.EvalWith(cfg, func() (*core.Prepared, error) {
			close(started)
			<-release
			return core.Prepare(cfg)
		})
		if err != nil {
			t.Errorf("computing caller failed: %v", err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := e.EvalContext(ctx, cfg)
		waitErr <- err
	}()
	// Give the joiner a moment to block on the in-flight call, then cancel.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waitErr:
		if err != context.Canceled {
			t.Fatalf("abandoned join returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled joiner never returned")
	}

	close(release)
	wg.Wait()
	// The abandoned wait did not damage the computed entry.
	if _, err := e.Eval(cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evals != 1 {
		t.Fatalf("engine performed %d evals, want 1 (abandoned join must not force a re-eval)", st.Evals)
	}
}
