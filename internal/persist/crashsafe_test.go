package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
)

// warmEngine evaluates n distinct configurations so the cache has content
// worth snapshotting.
func warmEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Options{})
	cfg := core.DefaultConfig()
	for i := 0; i < n; i++ {
		cfg.N = 10 + i
		if _, err := e.Eval(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSaveRotatingKeepsPreviousGeneration pins the rotation scheme: after
// two saves, the previous generation is intact and loadable on its own.
func TestSaveRotatingKeepsPreviousGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	e := warmEngine(t, 2)
	gen1 := e.SnapshotEntries()[:1]
	gen2 := e.SnapshotEntries()

	if err := SaveRotating(path, gen1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PrevPath(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("previous generation exists after first save: %v", err)
	}
	if err := SaveRotating(path, gen2); err != nil {
		t.Fatal(err)
	}
	cur, err := Load(path)
	if err != nil {
		t.Fatalf("current generation: %v", err)
	}
	prev, err := Load(PrevPath(path))
	if err != nil {
		t.Fatalf("previous generation: %v", err)
	}
	if len(cur) != 2 || len(prev) != 1 {
		t.Errorf("generations hold %d/%d entries, want 2/1", len(cur), len(prev))
	}
}

// TestTornWriteWarmBootsFromPrevious is the crash-safety acceptance proof
// at the persist layer: a snapshot torn mid-write (injected) must leave
// the process able to warm-boot from the previous generation with every
// entry intact — never a cold boot.
func TestTornWriteWarmBootsFromPrevious(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	path := filepath.Join(t.TempDir(), "snap")
	const points = 4
	e := warmEngine(t, points)

	if err := SaveRotating(path, e.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	// Second save tears mid-write: the current path now holds half a
	// container, the first save has been rotated to .prev.
	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.PersistTorn: 1}})
	if !faultinject.Enabled() {
		t.Skip("fault injection is compiled out (repro_nofaults)")
	}
	err := SaveRotating(path, e.SnapshotEntries())
	faultinject.Disable()
	if err == nil {
		t.Fatal("torn save reported success")
	}
	if _, lerr := Load(path); !errors.Is(lerr, ErrCorrupt) {
		t.Fatalf("torn current generation: Load err = %v, want ErrCorrupt", lerr)
	}

	var logged []string
	fresh := engine.New(engine.Options{})
	n, gen, err := WarmStartAuto(fresh, path, func(format string, args ...any) {
		logged = append(logged, format)
	})
	if err != nil {
		t.Fatalf("WarmStartAuto: %v", err)
	}
	if gen != "previous" {
		t.Fatalf("loaded generation %q, want \"previous\"", gen)
	}
	if n != points {
		t.Errorf("admitted %d entries from previous generation, want %d", n, points)
	}
	if len(logged) == 0 {
		t.Error("fallback to previous generation was not logged")
	}
	// Warm means warm: every pre-crash point is a cache hit.
	cfg := core.DefaultConfig()
	for i := 0; i < points; i++ {
		cfg.N = 10 + i
		if _, ok := fresh.Cached(cfg); !ok {
			t.Errorf("point N=%d missing after warm boot from previous generation", cfg.N)
		}
	}
}

// TestWarmStartAutoGenerations covers the remaining load matrix: clean
// current, cold boot, and both generations bad.
func TestWarmStartAutoGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	e := warmEngine(t, 1)

	// Cold boot: neither generation exists.
	n, gen, err := WarmStartAuto(engine.New(engine.Options{}), path, t.Logf)
	if n != 0 || gen != "" || err != nil {
		t.Fatalf("cold boot: (%d, %q, %v), want (0, \"\", nil)", n, gen, err)
	}

	// Clean current generation loads as "current".
	if err := SaveRotating(path, e.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	n, gen, err = WarmStartAuto(engine.New(engine.Options{}), path, t.Logf)
	if n != 1 || gen != "current" || err != nil {
		t.Fatalf("clean boot: (%d, %q, %v), want (1, \"current\", nil)", n, gen, err)
	}

	// Both generations corrupt: error, no silent cold boot.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(PrevPath(path), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = WarmStartAuto(engine.New(engine.Options{}), path, t.Logf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both generations corrupt: err = %v, want ErrCorrupt", err)
	}
}

// TestFsyncFailureLeavesCurrentIntact pins the injected fsync site: the
// publish never happens, so the rotated previous generation still loads.
func TestFsyncFailureLeavesCurrentIntact(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	path := filepath.Join(t.TempDir(), "snap")
	e := warmEngine(t, 1)

	if err := SaveRotating(path, e.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.PersistFsync: 1}})
	if !faultinject.Enabled() {
		t.Skip("fault injection is compiled out (repro_nofaults)")
	}
	err := SaveRotating(path, e.SnapshotEntries())
	faultinject.Disable()
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("err = %v, want injected fsync failure", err)
	}
	// The failed save rotated current -> .prev and published nothing new.
	n, gen, err := WarmStartAuto(engine.New(engine.Options{}), path, t.Logf)
	if err != nil || gen != "previous" || n != 1 {
		t.Fatalf("after fsync failure: (%d, %q, %v), want (1, \"previous\", nil)", n, gen, err)
	}
}

// TestCheckpointerBackoffAndStatus drives the checkpointer's save path
// directly (forced saves bypass tick backoff, so the backoff state is
// asserted through Status): failures accumulate with exponential skip
// budget, success resets everything.
func TestCheckpointerBackoffAndStatus(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	path := filepath.Join(t.TempDir(), "snap")
	e := warmEngine(t, 1)
	c := NewCheckpointer(e, path, time.Hour)

	faultinject.Enable(faultinject.Plan{Seed: 1, Rates: map[string]float64{faultinject.PersistFsync: 1}})
	if !faultinject.Enabled() {
		t.Skip("fault injection is compiled out (repro_nofaults)")
	}
	for i := 0; i < 3; i++ {
		if err := c.Save(); err == nil {
			t.Fatal("save succeeded under forced fsync failure")
		}
	}
	st := c.Status()
	if st.ConsecutiveFailures != 3 || st.SavesFailed != 3 || st.LastError == "" {
		t.Fatalf("after 3 failures: %+v", st)
	}
	if st.LastErrorTime.IsZero() {
		t.Error("LastErrorTime not stamped")
	}
	// Backoff skip budget after 3 consecutive failures is 2^3-1 ticks.
	for i := 0; i < 7; i++ {
		if !c.skipThisTick() {
			t.Fatalf("tick %d not skipped; backoff budget too small", i)
		}
	}
	if c.skipThisTick() {
		t.Error("backoff budget larger than 2^failures-1")
	}

	faultinject.Disable()
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	if st.ConsecutiveFailures != 0 || st.LastError != "" || st.SavesOK != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if st.LastSuccess.IsZero() {
		t.Error("LastSuccess not stamped")
	}
	if c.skipThisTick() {
		t.Error("backoff not cleared by success")
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}
