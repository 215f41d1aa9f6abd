package ctmc

// Pluggable linear-solver backends. Every absorption metric reduces to one
// transient sojourn solve per chain, so the solve strategy is the terminal
// scaling lever. A SolverBackend packages one strategy; the registry makes
// them selectable by name through core.Config.Solver, and "auto" — the
// default — runs a ladder: the exact block-triangular direct solve
// (direct.go), which answers every paper-scale chain in one topological
// sweep because their transient generators are nearly acyclic; then, for
// patterns it declines (an SCC over directMaxBlock states, a singular
// block, stalled refinement), an iterative backend picked by size; then
// the degradation ladder's sor-cascade and dense-LU rungs (degrade.go).
//
// A backend is an execution policy, not a model parameter: every backend
// converges to the same 1e-12 relative residual, so results are
// tolerance-identical (pinned by the cross-backend equivalence tests) and
// the evaluation engine deliberately excludes the knob from Config
// fingerprints (TestFingerprintIgnoresSolver).

import (
	"fmt"
	"os"
	"sort"
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
	// X0 is an optional warm-start guess (nil for a cold start); backends
	// must not modify it.
	X0 linalg.Vector
	// ILU returns the ILU(0) factorization of A, computed at most once per
	// chain and shared by every solve of the same matrix — each sweep point
	// and warm-started SweepSolver solve reuses the factors rather than
	// refactoring. For a value-patched system the factors may be *frozen*
	// (computed for a nearby matrix): Krylov backends tolerate an
	// approximate preconditioner, paying iterations instead of wrong
	// answers.
	ILU func() (*linalg.ILU0, error)
	// Iters, when non-nil, additionally receives the iteration count of
	// this one solve — the per-solve observability the incremental
	// re-solve path's refactorization budget is keyed on. Written without
	// synchronization; a SolveContext describes one solve on one goroutine.
	Iters *uint64

	// itersLocal backs Iters when solveVia instruments a solve itself:
	// embedding the sink in the context (already one heap allocation)
	// keeps the armed instrumentation path allocation-free.
	itersLocal uint64

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
// and, when the context carries a per-solve sink, to that sink too.
func (ctx *SolveContext) countIters(backend string, n uint64) {
	addSolveIters(backend, n)
	if ctx.Iters != nil {
		*ctx.Iters += n
	}
}

// SolverBackend is one pluggable solve strategy behind ctmc.Solution.
type SolverBackend interface {
	// Name is the registry key ("sor-cascade", "ilu-bicgstab", ...).
	Name() string
	// Solve solves ctx to the shared 1e-12 relative-residual tolerance.
	Solve(ctx *SolveContext) (linalg.Vector, error)
}

var (
	backendMu  sync.RWMutex
	backends   = make(map[string]SolverBackend)
	iterMu     sync.Mutex
	iterByName = make(map[string]*atomic.Uint64)
)

// RegisterSolverBackend adds a backend to the registry; a duplicate name
// panics (backends are registered from init functions).
func RegisterSolverBackend(b SolverBackend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[b.Name()]; dup {
		panic(fmt.Sprintf("ctmc: duplicate solver backend %q", b.Name()))
	}
	backends[b.Name()] = b
}

// SolverBackendNames returns the sorted names of every registered backend.
func SolverBackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendNamesLocked()
}

// backendNamesLocked lists the registry; callers hold backendMu (either
// mode). Kept separate so error paths that already hold the lock cannot
// re-enter it — a second RLock behind a pending writer deadlocks.
func backendNamesLocked() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SolverBackendByName resolves a registered backend.
func SolverBackendByName(name string) (SolverBackend, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("ctmc: unknown solver backend %q (have %v)", name, backendNamesLocked())
	}
	return b, nil
}

// SolverEnvVar names the environment variable that selects the process
// default solver backend (CI runs the test suite as a matrix over it).
const SolverEnvVar = "REPRO_SOLVER"

// defaultBackend resolves the process-default backend once: $REPRO_SOLVER
// when set to a registered name, otherwise "auto".
var defaultBackend = sync.OnceValue(func() SolverBackend {
	return backendForEnv(os.Getenv(SolverEnvVar))
})

// backendForEnv maps a REPRO_SOLVER value onto the process-default backend.
// An unrecognized value does NOT fall back silently: it yields a backend
// whose every Solve fails with the full list of registered names, so a
// typo'd deployment fails loudly at the first solve instead of quietly
// running a different solver than the operator asked for.
func backendForEnv(name string) SolverBackend {
	if name == "" {
		b, _ := SolverBackendByName(BackendAuto)
		return b
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
	return nil, fmt.Errorf("ctmc: %s=%q does not name a registered solver backend (have %v); fix or unset it",
		SolverEnvVar, b.name, SolverBackendNames())
}

// DefaultSolverBackend returns the backend chains without an explicit
// SetSolver use: auto when $REPRO_SOLVER is unset, the named backend when
// it is registered, and a backend that fails every solve with a
// descriptive error when it is not.
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

// Registered backend names.
const (
	BackendAuto        = "auto"
	BackendSORCascade  = "sor-cascade"
	BackendILUBiCGSTAB = "ilu-bicgstab"
	BackendGMRES       = "gmres"
)

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

// autoKrylovStates is the transient-state threshold past which "auto"
// picks ILU(0)-BiCGSTAB rather than the SOR cascade for a system the
// direct solve declined. Such systems are cyclic beyond the paper models'
// shape — the solve_largeN_* lattice operators in cmd/bench are the
// committed example — and there the Krylov solve's nearly flat iteration
// count beats the stationary methods' growing one by >10x; the threshold
// only keeps genuinely tiny systems, where a solve is microseconds either
// way and the factorization is pure overhead, on the cascade.
const autoKrylovStates = 256

// resolveBackend unwraps "auto" into the concrete iterative backend for one
// system: the one that answers when the direct solve declines.
func resolveBackend(b SolverBackend, a *linalg.CSR) SolverBackend {
	if b.Name() != BackendAuto {
		return b
	}
	name := BackendSORCascade
	if a.Rows >= autoKrylovStates {
		name = BackendILUBiCGSTAB
	}
	r, err := SolverBackendByName(name)
	if err != nil {
		panic(err) // built-in names are always registered
	}
	return r
}

// --- Built-in backends ---

func init() {
	RegisterSolverBackend(sorCascadeBackend{})
	RegisterSolverBackend(iluBiCGSTABBackend{})
	RegisterSolverBackend(gmresBackend{})
	RegisterSolverBackend(autoBackend{})
}

// sorCascadeBackend is the historical default: SOR (Gauss-Seidel), then
// BiCGSTAB, then dense LU for small systems.
type sorCascadeBackend struct{}

func (sorCascadeBackend) Name() string { return BackendSORCascade }

func (sorCascadeBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	return cascade(ctx)
}

// iluBiCGSTABBackend solves with BiCGSTAB preconditioned by the chain's
// cached ILU(0) factors — the large-N workhorse: its iteration count is
// nearly flat in N where the stationary methods' grows. Factorization or
// convergence failure falls back to the cascade, so it is never less
// robust than the default.
type iluBiCGSTABBackend struct{}

func (iluBiCGSTABBackend) Name() string { return BackendILUBiCGSTAB }

func (iluBiCGSTABBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	f, err := ctx.ILU()
	if err != nil {
		countFallback(BackendILUBiCGSTAB)
		return cascade(ctx)
	}
	x, res, err := linalg.SolvePrecBiCGSTAB(ctx.A, ctx.B, f,
		linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter, X0: ctx.X0})
	ctx.countIters(BackendILUBiCGSTAB, uint64(res.Iterations))
	if err == nil {
		return x, nil
	}
	countFallback(BackendILUBiCGSTAB)
	return cascade(ctx)
}

// gmresBackend solves with restarted GMRES(40), ILU(0)-preconditioned.
// Smoother convergence than BiCGSTAB on strongly non-normal operators at
// the price of the restart-window memory; same cascade fallback.
type gmresBackend struct{}

func (gmresBackend) Name() string { return BackendGMRES }

func (gmresBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	var pre linalg.Preconditioner
	if f, err := ctx.ILU(); err == nil {
		pre = f
	}
	x, res, err := linalg.SolveGMRES(ctx.A, ctx.B, pre, linalg.GMRESOpts{
		IterOpts: linalg.IterOpts{Tol: solverTol, MaxIter: solverMaxIter, X0: ctx.X0},
		Restart:  40,
	})
	ctx.countIters(BackendGMRES, uint64(res.Iterations))
	if err == nil {
		return x, nil
	}
	countFallback(BackendGMRES)
	return cascade(ctx)
}

// autoBackend picks per system: the SOR cascade below autoKrylovStates
// transient states, ILU(0)-BiCGSTAB at and above it. Chain solves resolve
// it per system (resolveBackend) inside the degradation ladder, whose
// primary rung tries the exact direct solve first; Solve here is only the
// iterative part, for callers that hold the backend itself.
type autoBackend struct{}

func (autoBackend) Name() string { return BackendAuto }

func (autoBackend) Solve(ctx *SolveContext) (linalg.Vector, error) {
	return resolveBackend(autoBackend{}, ctx.A).Solve(ctx)
}
