package ctmc

import (
	"strings"
	"testing"
)

// TestEnvSolverResolution pins the $REPRO_SOLVER mapping: empty selects
// auto, a backend name selects that backend.
func TestEnvSolverResolution(t *testing.T) {
	if got := backendForEnv("").Name(); got != BackendAuto {
		t.Errorf("empty %s resolved to %q, want %q", SolverEnvVar, got, BackendAuto)
	}
	for _, name := range SolverBackendNames() {
		if got := backendForEnv(name).Name(); got != name {
			t.Errorf("%s=%q resolved to %q", SolverEnvVar, name, got)
		}
	}
}

// TestUnknownEnvSolverFailsLoudly is the regression test for the silent
// fallback: an unrecognized $REPRO_SOLVER value — a typo, or the name of
// the deleted sor-cascade backend — must fail the first solve with an
// error naming the variable, the bad value, and every backend — not
// quietly run "auto" while the operator believes otherwise.
func TestUnknownEnvSolverFailsLoudly(t *testing.T) {
	for _, name := range []string{"no-such-solver", "sor-cascade"} {
		bad := backendForEnv(name)

		// Directly: Solve fails with a self-explanatory error.
		_, err := bad.Solve(&SolveContext{})
		if err == nil {
			t.Fatalf("%s=%s solved without error; the silent-fallback bug is back", SolverEnvVar, name)
		}
		for _, want := range append(SolverBackendNames(), SolverEnvVar, name) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}

		// Through a chain: the first transient solve surfaces the same error.
		chain := chainFromEdges(3, [][3]float64{{0, 1, 1}, {1, 2, 1}})
		chain.SetSolver(bad)
		if _, err := chain.Solve(0); err == nil {
			t.Fatalf("chain with %s=%s solved without error", SolverEnvVar, name)
		} else if !strings.Contains(err.Error(), SolverEnvVar) {
			t.Errorf("chain solve error %q does not mention %s", err, SolverEnvVar)
		}
	}
}
