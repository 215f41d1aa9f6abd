package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/spn"
)

// zeroCrossings returns the deltas of TestKeyedCheckMatchesReplay for a
// base configuration: the rates that can vanish (P1, P2, LambdaQ,
// PartitionRate, MergeRate) at 0, a single voter, and TIDS at both ends
// of a wide range.
func zeroCrossings(base Config) map[string]Config {
	out := make(map[string]Config)
	set := func(name string, mut func(*Config)) {
		c := base
		mut(&c)
		out[name] = c
	}
	set("P1=0", func(c *Config) { c.P1 = 0 })
	set("P2=0", func(c *Config) { c.P2 = 0 })
	set("LambdaQ=0", func(c *Config) { c.LambdaQ = 0 })
	set("PartitionRate=0", func(c *Config) { c.PartitionRate = 0 })
	set("MergeRate=0", func(c *Config) { c.MergeRate = 0 })
	set("M=1", func(c *Config) { c.M = 1 })
	set("TIDS=5", func(c *Config) { c.TIDS = 5 })
	set("TIDS=1200", func(c *Config) { c.TIDS = 1200 })
	return out
}

// TestKeyedCheckMatchesReplay pins the rate keys' per-key structural check
// to the per-state replay it replaced (spn.Graph.Rerate, kept as the
// oracle). For every model of refExploreGrid, sessions anchored on the
// base configuration and on each zero-crossed one re-rate to the other —
// so each rate goes to 0 and back — calling the keyed re-rate directly,
// past ClassifyDelta, and Graph.Rerate on a fresh clone of the anchor's
// graph. Both must call the same deltas structural, and where neither
// does, every edge rate must agree bitwise.
func TestKeyedCheckMatchesReplay(t *testing.T) {
	structural, rateOnly := 0, 0
	for _, v := range refExploreGrid() {
		t.Run(v.name, func(t *testing.T) {
			for name, crossed := range zeroCrossings(v.cfg) {
				for _, dir := range []struct {
					name     string
					from, to Config
				}{{"to", v.cfg, crossed}, {"back", crossed, v.cfg}} {
					donor, err := Prepare(dir.from)
					if err != nil {
						t.Fatalf("%s %s: %v", name, dir.name, err)
					}
					pd, err := NewPreparedDelta(donor)
					if err != nil {
						t.Fatal(err)
					}
					model, err := BuildModel(dir.to)
					if err != nil {
						t.Fatal(err)
					}
					keyedErr := pd.rerate(model)
					oracle, err := donor.Graph.CloneForRerate(model.Net)
					if err != nil {
						t.Fatal(err)
					}
					oracleErr := oracle.Rerate()
					if (keyedErr == nil) != (oracleErr == nil) {
						t.Fatalf("%s %s: keyed check says %v, replay says %v", name, dir.name, keyedErr, oracleErr)
					}
					if keyedErr != nil {
						if !errors.Is(keyedErr, spn.ErrStructureChanged) {
							t.Errorf("%s %s: keyed error %v does not wrap ErrStructureChanged", name, dir.name, keyedErr)
						}
						structural++
						continue
					}
					rateOnly++
					for si, row := range pd.graph.Edges {
						for k, e := range row {
							if want := oracle.Edges[si][k]; e.Transition != want.Transition ||
								math.Float64bits(e.Rate) != math.Float64bits(want.Rate) {
								t.Fatalf("%s %s: state %d edge %d: keyed %+v, replay %+v", name, dir.name, si, k, e, want)
							}
						}
					}
				}
			}
		})
	}
	if structural == 0 || rateOnly == 0 {
		t.Errorf("%d structural and %d rate-only deltas: the grid must exercise both", structural, rateOnly)
	}
}

// TestSessionsShareFamilyTables has several sessions of one family patch
// points concurrently, each created while the anchor is still unsolved
// and being solved and analysed on another goroutine — as the engine
// publishes an anchor before its own solve. The sessions share the
// anchor's rate keys, scatter maps and the direct solve's symbolic
// analysis, built once: the whole family runs one symbolic analysis, and
// every answer is bitwise the full path's. The race job repeats it.
func TestSessionsShareFamilyTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 24
	cfg.Solver = ctmc.BackendAuto
	points := make([]Config, 6)
	want := make([]*Result, len(points))
	for i := range points {
		points[i] = cfg
		points[i].TIDS = cfg.TIDS * (0.3 + 0.5*float64(i))
		points[i].P1 = cfg.P1 * (1 + 0.2*float64(i%3))
		res, err := Analyze(points[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	wantAnchor, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}

	analyses := ctmc.DirectAnalyses()
	const sessions = 4
	var wg sync.WaitGroup
	errs := make(chan string, sessions*len(points)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := anchor.Analyze()
		if err != nil {
			errs <- err.Error()
			return
		}
		if math.Float64bits(res.MTTSF) != math.Float64bits(wantAnchor.MTTSF) ||
			math.Float64bits(res.ProbC1) != math.Float64bits(wantAnchor.ProbC1) {
			errs <- "anchor answer differs from a fresh Analyze"
		}
	}()
	sizes := make([]int64, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pd, err := NewPreparedDelta(anchor)
			if err != nil {
				errs <- err.Error()
				return
			}
			for k := range points {
				i := (k + s) % len(points)
				p, err := pd.Prepared(points[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				got, err := p.Analyze()
				if err != nil {
					errs <- err.Error()
					return
				}
				w := want[i]
				if math.Float64bits(got.MTTSF) != math.Float64bits(w.MTTSF) ||
					math.Float64bits(got.Ctotal) != math.Float64bits(w.Ctotal) ||
					math.Float64bits(got.ProbC1) != math.Float64bits(w.ProbC1) ||
					math.Float64bits(got.ProbC2) != math.Float64bits(w.ProbC2) ||
					math.Float64bits(got.ProbDepleted) != math.Float64bits(w.ProbDepleted) {
					errs <- "patched answer differs from a fresh Analyze"
				}
			}
			sizes[s] = anchor.SessionBytes()
		}(s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := ctmc.DirectAnalyses() - analyses; n != 1 {
		t.Errorf("the family ran %d symbolic analyses, want 1", n)
	}
	for s, size := range sizes {
		if size <= 0 || size != anchor.SessionBytes() {
			t.Errorf("session %d saw SessionBytes %d, anchor now %d: the shared state was built more than once", s, size, anchor.SessionBytes())
		}
	}
}

// BenchmarkPatchedPoint times one patched point (keyed re-rate, patch,
// solve, Analyze) on an incremental session, stepping TIDS over the
// paper's grid, at N = 30 and 60.
func BenchmarkPatchedPoint(b *testing.B) {
	for _, n := range []int{30, 60} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.N = n
			cfg.Solver = ctmc.BackendAuto
			donor, err := Prepare(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pd, err := NewPreparedDelta(donor)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.TIDS = PaperTIDSGrid[i%len(PaperTIDSGrid)]
				p, err := pd.Prepared(c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
