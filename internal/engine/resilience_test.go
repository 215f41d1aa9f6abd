package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestInflightJoinersReceiveError is the in-flight error-path coverage the
// happy-path dedup tests never exercised: when the winning evaluation of a
// point fails, every joiner must receive that error, none may hang, and
// the fingerprint must be freshly re-evaluable afterwards (a failed
// evaluation must not leave a cached tombstone or a wedged in-flight
// entry).
func TestInflightJoinersReceiveError(t *testing.T) {
	e := New(Options{})
	cfg := core.DefaultConfig()
	cfg.N = 10

	release := make(chan struct{})
	started := make(chan struct{})
	wantErr := errors.New("model build exploded")

	// The winner: holds the in-flight slot until release, then fails.
	winnerDone := make(chan error, 1)
	go func() {
		_, err := e.EvalWith(cfg, func() (*core.Prepared, error) {
			close(started)
			<-release
			return nil, wantErr
		})
		winnerDone <- err
	}()
	<-started

	// Joiners: same fingerprint, must block on the winner's outcome.
	const joiners = 8
	joinErrs := make(chan error, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Eval(cfg)
			joinErrs <- err
		}()
	}
	// Give the joiners a moment to actually join the in-flight entry.
	time.Sleep(20 * time.Millisecond)
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("joiners hung after the winning evaluation failed")
	}
	if err := <-winnerDone; !errors.Is(err, wantErr) {
		t.Errorf("winner error = %v, want %v", err, wantErr)
	}
	for i := 0; i < joiners; i++ {
		if err := <-joinErrs; !errors.Is(err, wantErr) {
			t.Errorf("joiner error = %v, want %v", err, wantErr)
		}
	}

	// The point must be freshly re-evaluable: no tombstone, no wedge.
	res, err := e.Eval(cfg)
	if err != nil {
		t.Fatalf("re-evaluation after failure: %v", err)
	}
	if res.MTTSF <= 0 {
		t.Errorf("re-evaluation MTTSF = %v, want > 0", res.MTTSF)
	}
	if st := e.Stats(); st.Evals != 1 {
		t.Errorf("evals = %d after one failed and one successful evaluation, want 1", st.Evals)
	}
}

// TestPanicRecoveredAndPropagated pins the poison-proof panic contract: a
// panic inside an in-flight solve is recovered (process survives), becomes
// an error for the computing caller and every joiner, is never cached, and
// the point evaluates cleanly once the fault clears.
func TestPanicRecoveredAndPropagated(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	e := New(Options{})
	cfg := core.DefaultConfig()
	cfg.N = 10

	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.EnginePanic: 1}})
	if !faultinject.Enabled() {
		t.Skip("fault injection is compiled out (repro_nofaults)")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Eval(cfg)
			errs <- err
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("caller error = %v, want recovered-panic error", err)
		}
	}
	st := e.Stats()
	if st.PanicsRecovered == 0 {
		t.Error("PanicsRecovered = 0 after forced panics")
	}
	if st.Entries != 0 {
		t.Errorf("cache entries = %d after only panicked evaluations, want 0", st.Entries)
	}

	faultinject.Disable()
	if _, err := e.Eval(cfg); err != nil {
		t.Fatalf("evaluation after faults cleared: %v", err)
	}
}

// TestNonFiniteResultNeverCached pins cache admission: a Result carrying a
// NaN (injected after the solve, as a cost-layer bug would) is an error,
// is not cached, never reaches a snapshot, and the point recovers.
func TestNonFiniteResultNeverCached(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	e := New(Options{})
	cfg := core.DefaultConfig()
	cfg.N = 10

	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.EngineNonFinite: 1}})
	if !faultinject.Enabled() {
		t.Skip("fault injection is compiled out (repro_nofaults)")
	}
	if _, err := e.Eval(cfg); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Eval with injected NaN: err = %v, want non-finite rejection", err)
	}
	if st := e.Stats(); st.NonFiniteRejected == 0 || st.Entries != 0 {
		t.Errorf("stats after rejection: rejected=%d entries=%d, want >0 and 0", st.NonFiniteRejected, st.Entries)
	}
	if entries := e.SnapshotEntries(); len(entries) != 0 {
		t.Errorf("snapshot has %d entries after only rejected results", len(entries))
	}

	faultinject.Disable()
	res, err := e.Eval(cfg)
	if err != nil {
		t.Fatalf("Eval after faults cleared: %v", err)
	}
	if math.IsNaN(res.MTTSF) {
		t.Error("recovered result is NaN")
	}
}

// TestRestoreEntriesRejectsNonFinite pins the snapshot re-admission gate.
func TestRestoreEntriesRejectsNonFinite(t *testing.T) {
	e := New(Options{})
	cfg := core.DefaultConfig()
	cfg.N = 10
	good, err := e.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := e.SnapshotEntries()
	if len(entries) != 1 {
		t.Fatalf("snapshot entries = %d, want 1", len(entries))
	}
	poisoned := entries[0]
	poisoned.Key = "poisoned-key"
	poisoned.Result.Ctotal = math.Inf(1)

	fresh := New(Options{})
	admitted := fresh.RestoreEntries([]SnapshotEntry{poisoned, entries[0]})
	if admitted != 1 {
		t.Errorf("admitted = %d, want 1 (poisoned entry refused)", admitted)
	}
	if st := fresh.Stats(); st.NonFiniteRejected != 1 {
		t.Errorf("NonFiniteRejected = %d, want 1", st.NonFiniteRejected)
	}
	if res, ok := fresh.Cached(cfg); !ok || res.MTTSF != good.MTTSF {
		t.Error("clean entry was not admitted intact")
	}
}

// TestWatchdogAbandonsHungSolve pins the async-evaluation contract the
// service watchdog rests on: a caller whose context expires mid-solve gets
// its deadline error promptly while the solve completes in the background
// and is cached for the next caller.
func TestWatchdogAbandonsHungSolve(t *testing.T) {
	e := New(Options{})
	cfg := core.DefaultConfig()
	cfg.N = 10

	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		// Winner occupies the in-flight slot with a slow prepare.
		e.EvalWith(cfg, func() (*core.Prepared, error) {
			close(started)
			<-release
			return core.Prepare(cfg)
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := e.EvalContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("caller waited %v for a hung solve; watchdog contract broken", waited)
	}
	close(release)

	// The background evaluation completes and serves the next caller.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := e.Cached(cfg); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned evaluation never completed into the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
