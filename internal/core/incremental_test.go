package core

import (
	"errors"
	"testing"

	"repro/internal/ctmc"
)

// incrementalTestGrid is the rate-only neighbourhood the patch+re-solve
// property walks: detection-interval moves of every size (tiny nudges and
// order-of-magnitude jumps) plus attacker/churn rate changes.
func incrementalTestGrid(base Config) []Config {
	var out []Config
	for _, tids := range []float64{5, 15, 120, 125, 480, 1200, 30} {
		c := base
		c.TIDS = tids
		out = append(out, c)
	}
	c := base
	c.LambdaC *= 3
	out = append(out, c)
	c = base
	c.PartitionRate *= 2
	c.MergeRate *= 0.5
	out = append(out, c)
	c = base
	c.P1, c.P2 = 0.03, 0.002
	c.M = 7
	out = append(out, c)
	return out
}

// TestPatchedResolveMatchesFullPrepare is the tentpole property: under
// every solver backend — auto on the exact block-triangular tier, the
// explicit backends on the working chain's ladder — evaluating a
// rate-only neighbourhood through one PreparedDelta session (re-rate,
// in-place generator patch, incremental re-solve) reproduces the full
// re-prepare's dense-LU ground truth at every point to 1e-10.
func TestPatchedResolveMatchesFullPrepare(t *testing.T) {
	for _, name := range ctmc.SolverBackendNames() {
		base := DefaultConfig()
		base.N = 10
		base.Solver = name
		donor, err := Prepare(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pd, err := NewPreparedDelta(donor)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pi, cfg := range incrementalTestGrid(base) {
			p, err := pd.Prepared(cfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", name, pi, err)
			}
			sol, err := p.Solution()
			if err != nil {
				t.Fatalf("%s point %d: %v", name, pi, err)
			}
			y := sol.SojournTimes()
			full, err := Prepare(cfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", name, pi, err)
			}
			want := denseSojournReference(t, full)
			scale := 1 + want.NormInf()
			for i := range want {
				if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
					t.Fatalf("%s point %d: patched sojourn[%d] = %g, dense LU %g (diff %g)",
						name, pi, i, y[i], want[i], d)
				}
			}
		}
	}
}

// TestPatchedResolveForcedRefactor pins the patched solve of a session
// pinned to ilu-bicgstab: the direct tier belongs to auto, so every
// patched point — across a 240x detection-rate jump (TIDS 5 -> 1200) and
// back — re-solves through the working chain's ladder on exactly one
// fresh ILU(0) factorization of its own values, and lands on the dense-LU
// answer to 1e-10.
func TestPatchedResolveForcedRefactor(t *testing.T) {
	base := DefaultConfig()
	base.N = 10
	base.TIDS = 5
	base.Solver = ctmc.BackendILUBiCGSTAB
	donor, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}
	for _, tids := range []float64{1200, 5, 120} {
		cfg := base
		cfg.TIDS = tids
		before := ctmc.Refactorizations()
		p, err := pd.Prepared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctmc.Refactorizations() - before; got != 1 {
			t.Errorf("TIDS=%g: %d ILU(0) refactorizations for one patched point, want 1", tids, got)
		}
		sol, err := p.Solution()
		if err != nil {
			t.Fatal(err)
		}
		y := sol.SojournTimes()
		full, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := denseSojournReference(t, full)
		scale := 1 + want.NormInf()
		for i := range want {
			if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
				t.Fatalf("TIDS=%g: patched sojourn[%d] = %g, dense LU %g", tids, i, y[i], want[i])
			}
		}
	}
}

// TestPreparedDeltaVotingMemoExact pins the voting-table hand-off between
// patched points: a PreparedDelta walk that alternates m 3 -> 9 -> 3 and
// moves P1 inside (0,1), so that consecutive points sometimes may and
// sometimes must not share a table, equals a full prepare at every point
// under both protocols.
func TestPreparedDeltaVotingMemoExact(t *testing.T) {
	steps := []struct {
		m        int
		p1, tids float64
	}{
		{9, 0.01, 60}, {3, 0.01, 120}, {3, 0.01, 480}, {9, 0.01, 480},
		{9, 0.01, 30}, {3, 0.05, 30}, {3, 0.05, 600}, {3, 0.01, 600},
	}
	for _, proto := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		base := DefaultConfig()
		base.N = 20
		base.M = 3
		base.Protocol = proto
		base.Solver = ctmc.BackendAuto
		donor, err := Prepare(base)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := NewPreparedDelta(donor)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range steps {
			c := base
			c.M, c.P1, c.TIDS = st.m, st.p1, st.tids
			p, err := pd.Prepared(c)
			if err != nil {
				t.Fatalf("%v step %d: %v", proto, i, err)
			}
			got, err := p.Analyze()
			if err != nil {
				t.Fatalf("%v step %d: %v", proto, i, err)
			}
			want, err := Analyze(c)
			if err != nil {
				t.Fatalf("%v step %d: %v", proto, i, err)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"MTTSF", got.MTTSF, want.MTTSF}, {"Ctotal", got.Ctotal, want.Ctotal},
				{"ProbC1", got.ProbC1, want.ProbC1}, {"ProbC2", got.ProbC2, want.ProbC2},
			} {
				if relDiff(f.got, f.want) > 1e-12 {
					t.Errorf("%v step %d (m=%d P1=%v TIDS=%v): patched %s %v, full prepare %v",
						proto, i, st.m, st.p1, st.tids, f.name, f.got, f.want)
				}
			}
		}
	}
}

// TestPreparedDeltaStructuralFallback pins the fallback contract: a
// structural delta (different N; a rate zero-crossing) is refused with
// ErrStructuralDelta and counted, and the session stays anchored and usable
// for later rate-only points.
func TestPreparedDeltaStructuralFallback(t *testing.T) {
	base := DefaultConfig()
	base.N = 10
	donor, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}

	before := StructuralRepreps()
	grown := base
	grown.N = 12
	if _, err := pd.Prepared(grown); !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("N change returned %v, want ErrStructuralDelta", err)
	}
	crossing := base
	crossing.PartitionRate = 0
	crossing.MergeRate = 0
	if _, err := pd.Prepared(crossing); !errors.Is(err, ErrStructuralDelta) {
		t.Fatalf("rate zero-crossing returned %v, want ErrStructuralDelta", err)
	}
	if got := StructuralRepreps(); got != before+2 {
		t.Fatalf("structural re-prepare counter moved %d -> %d, want +2", before, got)
	}

	// The refusals must not have corrupted the session.
	after := base
	after.TIDS = 480
	p, err := pd.Prepared(after)
	if err != nil {
		t.Fatalf("session unusable after structural refusals: %v", err)
	}
	sol, err := p.Solution()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Prepare(after)
	if err != nil {
		t.Fatal(err)
	}
	want := denseSojournReference(t, full)
	y := sol.SojournTimes()
	scale := 1 + want.NormInf()
	for i := range want {
		if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
			t.Fatalf("post-refusal sojourn[%d] = %g, dense LU %g", i, y[i], want[i])
		}
	}
}

// TestIncrementalSweepMatchesCold pins the SweepOpts seam end to end: an
// incremental sweep returns the same metrics as an independent cold sweep.
func TestIncrementalSweepMatchesCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	grid := []float64{5, 15, 30, 60, 120, 240, 480, 600, 1200}
	cold, err := SweepTIDS(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := SweepTIDSOpts(cfg, grid, SweepOpts{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		w, g := cold[i].Result, inc[i].Result
		if d := (w.MTTSF - g.MTTSF) / w.MTTSF; d > 1e-10 || d < -1e-10 {
			t.Errorf("TIDS=%v: incremental MTTSF %g vs cold %g", grid[i], g.MTTSF, w.MTTSF)
		}
		if d := (w.Ctotal - g.Ctotal) / w.Ctotal; d > 1e-10 || d < -1e-10 {
			t.Errorf("TIDS=%v: incremental Ctotal %g vs cold %g", grid[i], g.Ctotal, w.Ctotal)
		}
	}
}
