package ctmc

// Linear-solver backends. Every absorption metric reduces to one transient
// sojourn solve per chain. A SolverBackend packages one solve strategy,
// selectable by name through core.Config.Solver. "auto", the default, runs
// the solve ladder (degrade.go): the exact block-triangular direct solve
// (direct.go), which answers every paper-scale chain in one topological
// sweep because their transient generators are nearly acyclic; then, for
// patterns it declines (an SCC over directMaxBlock states, a singular
// block, stalled refinement), ILU(0)-preconditioned BiCGSTAB; then dense
// LU for systems of at most denseRescueMax states. The explicit backends
// skip the direct rung and run their own Krylov solve first.
//
// A backend is an execution policy, not a model parameter: every backend
// converges to the same 1e-12 relative residual, so results are
// tolerance-identical (pinned by the cross-backend equivalence tests) and
// the evaluation engine deliberately excludes the knob from Config
// fingerprints (TestFingerprintIgnoresSolver).

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// SolveContext carries one linear system A x = b plus the per-chain cached
// machinery a backend may exploit.
type SolveContext struct {
	// A is the system matrix (a transient sub-generator or its transpose).
	A *linalg.CSR
	// B is the right-hand side.
	B linalg.Vector
	// ILU returns the ILU(0) factorization of A, computed at most once for
	// A's current values and shared by every solve that sees them.
	ILU func() (*linalg.ILU0, error)

	// iters receives the iteration count of this one solve, for the armed
	// solve histograms. Written without synchronization; a SolveContext
	// describes one solve on one goroutine.
	iters uint64

	// direct, when non-nil, is A's exact block-triangular solve, which the
	// primary rung tries before the backend (set by solveVia under "auto"
	// only); directAnswered records that it produced the accepted answer.
	direct         *blockTriDirect
	directAnswered bool
}

// solveDirect runs the context's direct solve, when it carries one, and
// accounts its refinement passes; nil means there was none or it declined.
func (ctx *SolveContext) solveDirect() linalg.Vector {
	if ctx.direct == nil {
		return nil
	}
	x, passes, ok := ctx.direct.solve(ctx.A, ctx.B)
	ctx.countIters(blockTriBackend, uint64(passes))
	if !ok {
		return nil
	}
	return x
}

// countIters accounts n iterations to the global and per-backend counters
// and to the context's per-solve count.
func (ctx *SolveContext) countIters(backend string, n uint64) {
	addSolveIters(backend, n)
	ctx.iters += n
}

// SolverBackend is one solve strategy behind ctmc.Solution.
type SolverBackend interface {
	// Name is the lookup key ("auto", "ilu-bicgstab", "gmres").
	Name() string
	// Solve solves ctx to the shared 1e-12 relative-residual tolerance.
	Solve(ctx *SolveContext) (linalg.Vector, error)
}

// Backend names.
const (
	BackendAuto        = "auto"
	BackendILUBiCGSTAB = "ilu-bicgstab"
	BackendGMRES       = "gmres"
)

// backends is the fixed set of solver backends, sorted by name.
var backends = [...]SolverBackend{autoBackend{}, gmresBackend{}, iluBiCGSTABBackend{}}

var (
	iterMu     sync.Mutex
	iterByName = make(map[string]*atomic.Uint64)
)

// SolverBackendNames returns the sorted names of every solver backend.
func SolverBackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}

// SolverBackendByName resolves a backend by name.
func SolverBackendByName(name string) (SolverBackend, error) {
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("ctmc: unknown solver backend %q (have %v)", name, SolverBackendNames())
}

// SolverEnvVar names the environment variable that selects the process
// default solver backend (CI runs the test suite as a matrix over it).
const SolverEnvVar = "REPRO_SOLVER"

// defaultBackend resolves the process-default backend once: $REPRO_SOLVER
// when set to a backend name, otherwise "auto".
var defaultBackend = sync.OnceValue(func() SolverBackend {
	return backendForEnv(os.Getenv(SolverEnvVar))
})

// backendForEnv maps a REPRO_SOLVER value onto the process-default backend.
// An unrecognized value does NOT fall back silently: it yields a backend
// whose every Solve fails with the full list of backend names, so a
// typo'd deployment fails loudly at the first solve instead of quietly
// running a different solver than the operator asked for.
func backendForEnv(name string) SolverBackend {
	if name == "" {
		return autoBackend{}
	}
	b, err := SolverBackendByName(name)
	if err != nil {
		return invalidEnvBackend{name: name}
	}
	return b
}

// invalidEnvBackend is the loud-failure stand-in for an unrecognized
// $REPRO_SOLVER value.
type invalidEnvBackend struct{ name string }

func (b invalidEnvBackend) Name() string { return "invalid:" + b.name }

func (b invalidEnvBackend) Solve(*SolveContext) (linalg.Vector, error) {
	return nil, fmt.Errorf("ctmc: %s=%q does not name a solver backend (have %v); fix or unset it",
		SolverEnvVar, b.name, SolverBackendNames())
}

// DefaultSolverBackend returns the backend chains without an explicit
// SetSolver use: auto when $REPRO_SOLVER is unset, the named backend when
// it exists, and a backend that fails every solve with a descriptive
// error when it does not.
func DefaultSolverBackend() SolverBackend { return defaultBackend() }

// ValidateDefaultSolver reports whether the process-default solver
// resolution is usable, without performing a solve: the error a typo'd
// $REPRO_SOLVER would otherwise surface on the first solve. Long-lived
// daemons (cmd/server) call it at boot, so a misconfigured deployment
// fails at startup instead of answering every request with the same
// solver error.
func ValidateDefaultSolver() error {
	if b, ok := DefaultSolverBackend().(invalidEnvBackend); ok {
		_, err := b.Solve(nil)
		return err
	}
	return nil
}

// addSolveIters accounts iterative-solver iterations to both the global
// counter (SolveIterations) and the per-backend counter
// (SolveIterationsByBackend).
func addSolveIters(backend string, n uint64) {
	solveIters.Add(n)
	backendIterCounter(backend).Add(n)
}

func backendIterCounter(name string) *atomic.Uint64 {
	iterMu.Lock()
	defer iterMu.Unlock()
	c, ok := iterByName[name]
	if !ok {
		c = &atomic.Uint64{}
		iterByName[name] = c
	}
	return c
}

// SolveIterationsByBackend returns a snapshot of the cumulative iteration
// count each backend has spent (the bench harness diffs it per workload).
func SolveIterationsByBackend() map[string]uint64 {
	iterMu.Lock()
	defer iterMu.Unlock()
	out := make(map[string]uint64, len(iterByName))
	for name, c := range iterByName {
		out[name] = c.Load()
	}
	return out
}

// iluBiCGSTABBackend solves with BiCGSTAB preconditioned by the chain's
// cached ILU(0) factors, the iterative rung of every ladder: its
// iteration count is nearly flat in N. ILU(0) exists for every
// nonsingular M-matrix, which -Q_TT^T is, so a factorization error is a
// solve failure like any other and the ladder's next rung answers.
type iluBiCGSTABBackend struct{}

func (iluBiCGSTABBackend) Name() string { return BackendILUBiCGSTAB }

func (iluBiCGSTABBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	f, err := ctx.ILU()
	if err != nil {
		return nil, err
	}
	x, res, err := linalg.SolvePrecBiCGSTAB(ctx.A, ctx.B, f,
		linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter})
	ctx.countIters(BackendILUBiCGSTAB, uint64(res.Iterations))
	if err != nil {
		return nil, err
	}
	return x, nil
}

// gmresBackend solves with restarted GMRES(40), ILU(0)-preconditioned
// when the factorization exists. Smoother convergence than BiCGSTAB on
// strongly non-normal operators at the price of the restart-window memory.
type gmresBackend struct{}

func (gmresBackend) Name() string { return BackendGMRES }

func (gmresBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	var pre linalg.Preconditioner
	if f, err := ctx.ILU(); err == nil {
		pre = f
	}
	x, res, err := linalg.SolveGMRES(ctx.A, ctx.B, pre, linalg.GMRESOpts{
		IterOpts: linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter},
		Restart:  40,
	})
	ctx.countIters(BackendGMRES, uint64(res.Iterations))
	if err != nil {
		return nil, err
	}
	return x, nil
}

// autoBackend is the default. Chain solves give its primary rung the
// exact direct solve first (solveVia); its own Solve, the answer for
// patterns the direct solve declines, is ILU(0)-BiCGSTAB.
type autoBackend struct{}

func (autoBackend) Name() string { return BackendAuto }

func (autoBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	return iluBiCGSTABBackend{}.Solve(ctx)
}
