package persist

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// testConfig returns a small, fast configuration.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.N = 12
	return cfg
}

var testGrid = []float64{30, 60, 120}

// populate evaluates the test grid on a fresh engine and returns both.
func populate(t *testing.T) (*engine.Engine, map[float64]*core.Result) {
	t.Helper()
	e := engine.New(engine.Options{})
	want := make(map[float64]*core.Result, len(testGrid))
	for _, tids := range testGrid {
		cfg := testConfig()
		cfg.TIDS = tids
		res, err := e.Eval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[tids] = res
	}
	return e, want
}

// TestFileRoundTrip is the acceptance test for cache persistence: save a
// populated engine, load the file into a fresh engine (a simulated
// restart), and replay the sweep grid — a 100% hit rate, zero new solves,
// and Results identical to 1e-12 (they are in fact bit-identical, since
// the snapshot stores the solved values verbatim).
func TestFileRoundTrip(t *testing.T) {
	e1, want := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := SaveEngine(e1, path); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New(engine.Options{})
	n, err := WarmStart(e2, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(testGrid) {
		t.Fatalf("warm start restored %d entries, want %d", n, len(testGrid))
	}
	for _, tids := range testGrid {
		cfg := testConfig()
		cfg.TIDS = tids
		res, err := e2.Eval(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"MTTSF", res.MTTSF, want[tids].MTTSF},
			{"Ctotal", res.Ctotal, want[tids].Ctotal},
			{"ProbC1", res.ProbC1, want[tids].ProbC1},
			{"ProbC2", res.ProbC2, want[tids].ProbC2},
		} {
			denom := math.Max(math.Abs(v.want), 1)
			if math.Abs(v.got-v.want)/denom > 1e-12 {
				t.Errorf("TIDS=%v %s: restored %v, original %v", tids, v.name, v.got, v.want)
			}
		}
	}
	st := e2.Stats()
	if st.Evals != 0 || st.Misses != 0 || st.Hits != uint64(len(testGrid)) {
		t.Fatalf("replayed sweep on restored engine: %+v, want a 100%% hit rate with 0 evals", st)
	}
}

// TestWarmStartMissingFile pins that a first boot (no snapshot yet) is a
// normal cold start, not an error.
func TestWarmStartMissingFile(t *testing.T) {
	e := engine.New(engine.Options{})
	n, err := WarmStart(e, filepath.Join(t.TempDir(), "never-written.snap"))
	if err != nil || n != 0 {
		t.Fatalf("WarmStart on missing file = (%d, %v), want (0, nil)", n, err)
	}
}

// TestTruncatedSnapshotRejected cuts a valid snapshot at every region
// boundary (and mid-payload); each truncation must surface ErrCorrupt and
// leave the engine cold.
func TestTruncatedSnapshotRejected(t *testing.T) {
	e1, _ := populate(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	if err := SaveEngine(e1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 8, 11, 20, len(data) / 2, len(data) - 3} {
		trunc := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Options{})
		n, err := WarmStart(e, trunc)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
		if n != 0 || e.Stats().Entries != 0 {
			t.Errorf("truncation at %d bytes: engine not cold (%d restored)", cut, n)
		}
	}
}

// TestCorruptedSnapshotRejected flips one payload bit; the checksum must
// catch it.
func TestCorruptedSnapshotRejected(t *testing.T) {
	e1, _ := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := SaveEngine(e1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0x40 // inside the payload (the trailing 8 bytes are the checksum)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped snapshot loaded: err = %v, want ErrCorrupt", err)
	}
}

// TestStaleSchemaRejected is the acceptance test for schema pinning: a
// structurally valid snapshot written under a different fingerprint schema
// (here a fabricated one; in life, a build whose core.Config changed) must
// be rejected with ErrStaleSchema — never silently reused — and the engine
// must boot cold.
func TestStaleSchemaRejected(t *testing.T) {
	e1, _ := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := saveWithSchema(path, "v0:0123456789abcdef", e1.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{})
	n, err := WarmStart(e2, path)
	if !errors.Is(err, ErrStaleSchema) {
		t.Fatalf("stale-schema snapshot: err = %v, want ErrStaleSchema", err)
	}
	if n != 0 || e2.Stats().Entries != 0 {
		t.Fatalf("stale-schema snapshot warmed the engine (%d entries)", n)
	}
}

// TestV1SnapshotRejected pins that a snapshot written under the version 1
// fingerprint format (text keys), whose schema string this is, is refused
// rather than loaded as entries no version 2 key would ever hit.
func TestV1SnapshotRejected(t *testing.T) {
	e1, _ := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := saveWithSchema(path, "v1:8149e1be9d7f02a0", e1.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{})
	if n, err := WarmStart(e2, path); !errors.Is(err, ErrStaleSchema) || n != 0 || e2.Stats().Entries != 0 {
		t.Fatalf("v1 snapshot: %d entries loaded, err = %v, want none and ErrStaleSchema", n, err)
	}
}

// TestForeignFileRejected pins that an arbitrary file is ErrCorrupt, not a
// crash.
func TestForeignFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notasnap")
	if err := os.WriteFile(path, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file loaded: err = %v, want ErrCorrupt", err)
	}
}

// TestSaveIsAtomic pins that a failed save cannot destroy the previous
// snapshot: after overwriting with new content, the file always parses.
func TestSaveIsAtomic(t *testing.T) {
	e1, _ := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := SaveEngine(e1, path); err != nil {
		t.Fatal(err)
	}
	// A second save over the same path must leave a loadable file and no
	// temp litter.
	if err := SaveEngine(e1, path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	glob, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*"))
	if len(glob) != 0 {
		t.Fatalf("temp files left behind: %v", glob)
	}
}

// TestCheckpointerFinalSave pins the shutdown contract: Stop writes the
// final snapshot (even when no periodic tick ever fired) and is
// idempotent.
func TestCheckpointerFinalSave(t *testing.T) {
	e, _ := populate(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	c := NewCheckpointer(e, path, time.Hour)
	c.Start(func(err error) { t.Errorf("checkpoint error: %v", err) })
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	entries, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(testGrid) {
		t.Fatalf("final checkpoint holds %d entries, want %d", len(entries), len(testGrid))
	}
}
