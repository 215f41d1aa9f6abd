package core

import (
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/shapes"
)

// denseSojournReference solves a Prepared's sojourn system with dense LU —
// the ground truth every iterative backend must agree with.
func denseSojournReference(t *testing.T, p *Prepared) linalg.Vector {
	t.Helper()
	c := p.Chain
	n := c.NumStates()
	q := c.Generator()
	// Compact transient numbering, in state order (matches ctmc's).
	tIdx := make([]int, n)
	var tRev []int
	for i := 0; i < n; i++ {
		if c.IsAbsorbing(i) {
			tIdx[i] = -1
			continue
		}
		tIdx[i] = len(tRev)
		tRev = append(tRev, i)
	}
	nt := len(tRev)
	if nt == 0 || nt == n {
		t.Fatalf("degenerate transient set (%d of %d states)", nt, n)
	}
	// A = Q_TT^T, rhs = -e_init.
	at := linalg.NewDense(nt, nt)
	for ti, i := range tRev {
		q.Row(i, func(j int, v float64) {
			if tj := tIdx[j]; tj >= 0 {
				at.Set(tj, ti, v)
			}
		})
	}
	rhs := linalg.NewVector(nt)
	rhs[tIdx[p.Graph.Initial]] = -1
	sol, err := linalg.SolveDense(at, rhs)
	if err != nil {
		t.Fatal(err)
	}
	full := linalg.NewVector(n)
	for ti, i := range tRev {
		v := sol[ti]
		if v < 0 && v > -1e-9 {
			v = 0
		}
		full[i] = v
	}
	return full
}

// solverEquivGrid is the PR2 model grid the cross-backend equivalence
// property runs on: the same small-model family the exploration
// isomorphism property uses, spanning protocols, shapes, and eviction
// variants.
func solverEquivGrid() []Config {
	var grid []Config
	for _, n := range []int{6, 10} {
		for _, proto := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
			for _, det := range []shapes.Kind{shapes.Linear, shapes.Logarithmic} {
				cfg := DefaultConfig()
				cfg.N = n
				cfg.Protocol = proto
				cfg.Detection = det
				grid = append(grid, cfg)
			}
		}
	}
	explicit := DefaultConfig()
	explicit.N = 6
	explicit.ExplicitEviction = true
	grid = append(grid, explicit)
	return grid
}

// TestBackendsMatchDenseLUOnModelGrid is the cross-backend equivalence
// property: every solver backend reproduces the dense-LU sojourn
// vector to 1e-10 on the small-model grid. Backends are execution policy —
// this is what licenses excluding Config.Solver from engine fingerprints.
func TestBackendsMatchDenseLUOnModelGrid(t *testing.T) {
	for gi, base := range solverEquivGrid() {
		ref, err := Prepare(base)
		if err != nil {
			t.Fatal(err)
		}
		want := denseSojournReference(t, ref)
		for _, name := range ctmc.SolverBackendNames() {
			cfg := base
			cfg.Solver = name
			if err := cfg.Validate(); err != nil {
				t.Fatalf("grid %d solver %s: %v", gi, name, err)
			}
			p, err := Prepare(cfg)
			if err != nil {
				t.Fatalf("grid %d solver %s: %v", gi, name, err)
			}
			sol, err := p.Solution()
			if err != nil {
				t.Fatalf("grid %d solver %s: %v", gi, name, err)
			}
			y := sol.SojournTimes()
			scale := 1 + want.NormInf()
			for i := range want {
				if d := y[i] - want[i]; d > 1e-10*scale || d < -1e-10*scale {
					t.Fatalf("grid %d solver %s: sojourn[%d] = %g, dense LU %g (diff %g)",
						gi, name, i, y[i], want[i], d)
				}
			}
		}
	}
}

// TestBackendsMatchDenseLUWarmSwept checks a TIDS sweep with Config.Solver
// pinned to each backend against the dense-LU MTTSF and a per-point
// full-prepare Analyze at every grid point. The sweep walks one
// PreparedDelta anchored on the first point, as the engine's pooled misses
// do, so every later point is patched: under auto the exact
// block-triangular tier answers them, under an explicit backend the
// working chain's ladder does, so this pins that the backend choice cannot
// leak into a sweep's answers. The patched points are checked element by
// element against dense LU in TestPatchedResolveMatchesFullPrepare.
func TestBackendsMatchDenseLUWarmSwept(t *testing.T) {
	grid := []float64{30, 120, 480, 1200}
	base := DefaultConfig()
	base.N = 10
	for _, name := range ctmc.SolverBackendNames() {
		cfg := base
		cfg.Solver = name
		cfg.TIDS = grid[0]
		anchor, err := Prepare(cfg)
		if err != nil {
			t.Fatalf("solver %s: %v", name, err)
		}
		pd, err := NewPreparedDelta(anchor)
		if err != nil {
			t.Fatalf("solver %s: %v", name, err)
		}
		for i, tids := range grid {
			c := cfg
			c.TIDS = tids
			swept := anchor
			if i > 0 {
				if swept, err = pd.Prepared(c); err != nil {
					t.Fatalf("solver %s TIDS %v: patch: %v", name, tids, err)
				}
			}
			got, err := swept.Analyze()
			if err != nil {
				t.Fatalf("solver %s TIDS %v: %v", name, tids, err)
			}
			p, err := Prepare(c)
			if err != nil {
				t.Fatalf("solver %s TIDS %v: %v", name, tids, err)
			}
			dense := 0.0
			for _, v := range denseSojournReference(t, p) {
				dense += v
			}
			if d := relDiff(got.MTTSF, dense); d > 1e-10 {
				t.Errorf("solver %s TIDS %v: swept MTTSF %v, dense LU %v (rel %g)", name, tids, got.MTTSF, dense, d)
			}
			want, err := p.Analyze()
			if err != nil {
				t.Fatalf("solver %s TIDS %v: %v", name, tids, err)
			}
			if relDiff(got.MTTSF, want.MTTSF) > 1e-10 || relDiff(got.Ctotal, want.Ctotal) > 1e-10 {
				t.Errorf("solver %s TIDS %v: swept (%v, %v), per-point Analyze (%v, %v)",
					name, tids, got.MTTSF, got.Ctotal, want.MTTSF, want.Ctotal)
			}
		}
	}
}

// TestConfigSolverValidation pins the knob's validation: backend names
// and "" pass, anything else — the deleted sor-cascade backend included —
// is rejected before any work happens, with the list of valid names.
func TestConfigSolverValidation(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range append([]string{""}, ctmc.SolverBackendNames()...) {
		cfg.Solver = name
		if err := cfg.Validate(); err != nil {
			t.Errorf("Solver=%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"cholesky-of-doom", "sor-cascade"} {
		cfg.Solver = name
		err := cfg.Validate()
		if err == nil {
			t.Errorf("unknown solver name %q passed validation", name)
			continue
		}
		for _, valid := range ctmc.SolverBackendNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("Solver=%q: error %q does not list %q", name, err, valid)
			}
		}
		if _, err := Prepare(cfg); err == nil {
			t.Errorf("Prepare accepted the unknown solver name %q", name)
		}
	}
}
