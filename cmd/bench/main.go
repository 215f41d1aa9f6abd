// Command bench runs the canonical performance workloads — state-space
// exploration, generator assembly, transient solves, and the paper's
// sweep/frontier pipelines — at several model sizes and writes the
// measurements to a BENCH_<rev>.json artifact. The JSON files form the
// repository's performance trajectory: each revision's numbers are compared
// against the previous revision's committed baseline (see README.md for the
// schema).
//
// Usage:
//
//	bench [-preset small|full] [-rev name] [-o file] [-baseline file]
//	      [-gate factor] [-allow workload,...] [-trajectory]
//
// The small preset (N = 30, 60) finishes in well under a minute and is what
// CI runs; the full preset adds the paper's N = 100. With -baseline the
// harness prints a per-workload speedup table against an earlier run; with
// -gate it additionally exits nonzero when any workload regressed by more
// than the given factor (CI's soft perf gate; -allow exempts workloads).
// -rev defaults to the short git revision of the working tree. -trajectory
// skips measuring entirely and renders every committed BENCH_*.json as one
// speedup-over-baseline table per workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/spn"
)

// Result is one workload's measurement, in the units `go test -bench`
// reports plus the domain-specific throughput counters.
type Result struct {
	// Name identifies the workload; N is the model size it ran at.
	Name string `json:"name"`
	N    int    `json:"n"`
	// Iterations is the number of timed operations the harness settled on.
	Iterations int `json:"iterations"`
	// NsPerOp, AllocsPerOp, BytesPerOp follow testing.BenchmarkResult.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// States is the reachable state count of the model(s) one op touches;
	// StatesPerSec is the exploration throughput (explore workloads only).
	States       int     `json:"states,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// SolvesPerOp and SolveItersPerOp count transient linear solves and
	// the iterative-solver iterations they spent (solver workloads only).
	SolvesPerOp     uint64 `json:"solves_per_op,omitempty"`
	SolveItersPerOp uint64 `json:"solve_iters_per_op,omitempty"`
	// BackendIters breaks SolveItersPerOp down by solver backend (solver
	// workloads only): which backend actually did the work, and how much.
	BackendIters map[string]uint64 `json:"backend_iters_per_op,omitempty"`
	// PatchedSolvesPerOp and RefactorizationsPerOp account for the
	// incremental re-solve path (sweep_incremental only): how many points
	// were served by patching the cached generator pattern in place, and
	// how many of them the exact direct solve did not answer, so the
	// working chain factored ILU(0) afresh (ctmc.Refactorizations).
	PatchedSolvesPerOp    uint64 `json:"patched_solves_per_op,omitempty"`
	RefactorizationsPerOp uint64 `json:"refactorizations_per_op,omitempty"`
	// ReqPerSec and P99Ns are HTTP-serving throughput and tail latency
	// (service workloads only): requests completed per second across the
	// concurrent client pool, and the 99th-percentile request latency.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	P99Ns     int64   `json:"p99_ns,omitempty"`
	// Retries counts client-side retried attempts (serve_batch_faulty
	// only): how much of the injected fault schedule the resilient client
	// had to absorb to finish the sweep.
	Retries uint64 `json:"retries,omitempty"`
	// EvalsPerOp and GridPoints report the adaptive-frontier economy
	// (frontier_adaptive only): fresh model evaluations the
	// active-learning loop charged to converge versus the size of the
	// full grid it replaced. The harness verifies the converged frontier
	// is identical to the full-grid one before timing anything.
	EvalsPerOp int `json:"evals_per_op,omitempty"`
	GridPoints int `json:"grid_points,omitempty"`
}

// File is the BENCH_<rev>.json document.
type File struct {
	Revision   string   `json:"revision"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Preset     string   `json:"preset"`
	Workloads  []Result `json:"workloads"`
}

// gitRev returns the working tree's short revision, or "dev" outside a git
// checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "dev"
}

func main() {
	preset := flag.String("preset", "small", "workload sizes: small (N=30,60) or full (adds N=100)")
	rev := flag.String("rev", "", "revision label used in the default output name (default: git short rev)")
	out := flag.String("o", "", "output path (default BENCH_<rev>.json)")
	baseline := flag.String("baseline", "", "optional earlier BENCH_*.json to print speedups against")
	gate := flag.Float64("gate", 0, "fail when a workload is slower than baseline by more than this factor (0 disables)")
	allow := flag.String("allow", "", "comma-separated workload names exempt from the -gate check")
	trajectory := flag.Bool("trajectory", false, "aggregate all committed BENCH_*.json into one speedup-over-baseline table and exit")
	versionFlag := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(obs.VersionString("bench"))
		return
	}

	if *trajectory {
		if err := printTrajectory(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var ns []int
	switch *preset {
	case "small":
		ns = []int{30, 60}
	case "full":
		ns = []int{30, 60, 100}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown preset %q\n", *preset)
		os.Exit(2)
	}
	if *rev == "" {
		*rev = gitRev()
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *rev)
	}

	f := File{
		Revision:   *rev,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Preset:     *preset,
	}
	for _, n := range ns {
		f.Workloads = append(f.Workloads, kernelWorkloads(n)...)
	}
	sweepN := ns[len(ns)-1]
	f.Workloads = append(f.Workloads, sweepWorkloads(sweepN)...)
	f.Workloads = append(f.Workloads, incrementalWorkloads(sweepN)...)
	f.Workloads = append(f.Workloads, sensitivityWorkload(sweepN))
	f.Workloads = append(f.Workloads, frontierWorkload(30))
	f.Workloads = append(f.Workloads, frontierAdaptiveWorkload(12))
	f.Workloads = append(f.Workloads, backendMatrixWorkloads(sweepN)...)
	f.Workloads = append(f.Workloads, largeNWorkloads(largeNSide(*preset))...)
	f.Workloads = append(f.Workloads, metricsOverheadWorkload(30)...)
	f.Workloads = append(f.Workloads, serveBatchWorkload(30))
	f.Workloads = append(f.Workloads, serveBatchFaultyWorkload(30))
	f.Workloads = append(f.Workloads, clusterBatchWorkload(30))
	f.Workloads = append(f.Workloads, clusterBatchKillWorkload(30))

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d workloads)\n", path, len(f.Workloads))

	if *baseline != "" {
		regressed, err := printComparison(*baseline, f, *gate, allowSet(*allow))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "bench: regression gate (>%gx) tripped by: %s\n", *gate, strings.Join(regressed, ", "))
			os.Exit(1)
		}
	}
}

// allowSet parses the -allow list.
func allowSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			set[name] = true
		}
	}
	return set
}

// mustPrepare builds the model and reachability graph for size n.
func mustPrepare(n int) (*core.Model, *spn.Graph) {
	cfg := core.DefaultConfig()
	cfg.N = n
	m, err := core.BuildModel(cfg)
	if err != nil {
		fatal(err)
	}
	g, err := m.Explore()
	if err != nil {
		fatal(err)
	}
	return m, g
}

// kernelWorkloads measures the building blocks of one evaluation at size n:
// cold exploration across the TIDS grid, generator assembly, generator
// transposition, the transient solve, and one patched point.
func kernelWorkloads(n int) []Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	_, g := mustPrepare(n)
	chain := ctmc.FromGraph(g)

	// explore_sweep: a cold-cache reachability sweep over the paper's TIDS
	// grid — state-space generation is all it does, so it is the
	// Explore-dominated workload the perf trajectory tracks. explore_seq
	// measures the same closure: it once timed the sequential explorer
	// next to a sharded parallel one, and both keys stay so every
	// committed baseline keeps matching.
	states := 0
	exploreGrid := func() {
		states = 0
		for _, tids := range core.PaperTIDSGrid {
			c := cfg
			c.TIDS = tids
			m, err := core.BuildModel(c)
			if err != nil {
				fatal(err)
			}
			gg, err := m.Explore()
			if err != nil {
				fatal(err)
			}
			states += gg.NumStates()
		}
	}
	throughput := func(r Result) Result {
		r.States = states
		if r.NsPerOp > 0 {
			r.StatesPerSec = float64(states) / (float64(r.NsPerOp) * 1e-9)
		}
		return r
	}
	rExplore := throughput(measure("explore_sweep", n, exploreGrid))
	rExploreSeq := throughput(measure("explore_seq", n, exploreGrid))

	rAssemble := measure("assemble_generator", n, func() { ctmc.FromGraph(g) })
	rAssemble.States = g.NumStates()

	q := chain.Generator()
	rTranspose := measure("transpose_generator", n, func() { q.Transpose() })

	// solve: the transient sojourn solve on a prebuilt chain — the solver
	// ladder plus whatever per-solve assembly the chain still performs.
	rSolve := measureSolves("solve_sojourn", n, func() {
		if _, err := chain.Solve(g.Initial); err != nil {
			fatal(err)
		}
	})
	rSolve.States = g.NumStates()
	return []Result{rExplore, rExploreSeq, rAssemble, rTranspose, rSolve, reratePatchWorkload(cfg)}
}

// reratePatchWorkload times one patched point on an incremental session
// anchored at cfg: the shared graph's edge rates gathered from the
// family's rate keys under a rebuilt model, the generator patched and
// re-solved, and the Result analysed. Each op moves TIDS to the next value of the paper's grid.
func reratePatchWorkload(cfg core.Config) Result {
	donor, err := core.Prepare(cfg)
	if err != nil {
		fatal(err)
	}
	pd, err := core.NewPreparedDelta(donor)
	if err != nil {
		fatal(err)
	}
	op := 0
	r := measure("rerate_patch", cfg.N, func() {
		c := cfg
		c.TIDS = core.PaperTIDSGrid[op%len(core.PaperTIDSGrid)]
		op++
		p, err := pd.Prepared(c)
		if err != nil {
			fatal(err)
		}
		if _, err := p.Analyze(); err != nil {
			fatal(err)
		}
	})
	r.States = donor.Graph.NumStates()
	return r
}

// measureSolves wraps measure and annotates the result with per-op solve
// and solver-iteration counts, broken down per backend.
func measureSolves(name string, n int, fn func()) Result {
	solves0, iters0 := ctmc.SolveCount(), ctmc.SolveIterations()
	by0 := ctmc.SolveIterationsByBackend()
	ops := 0
	r := measure(name, n, func() {
		ops++
		fn()
	})
	if ops > 0 {
		r.SolvesPerOp = (ctmc.SolveCount() - solves0) / uint64(ops)
		r.SolveItersPerOp = (ctmc.SolveIterations() - iters0) / uint64(ops)
		for backend, iters := range ctmc.SolveIterationsByBackend() {
			if delta := iters - by0[backend]; delta > 0 {
				if r.BackendIters == nil {
					r.BackendIters = make(map[string]uint64)
				}
				r.BackendIters[backend] = delta / uint64(ops)
			}
		}
	}
	return r
}

// largeNSide is the lattice side of the solve_largeN workload per preset:
// the full preset's 224x224 lattice has 50176 transient states — past the
// auto heuristic's Krylov threshold and large enough that stationary
// iteration counts dominate; the small preset shrinks it to keep CI quick.
func largeNSide(preset string) int {
	if preset == "full" {
		return 224
	}
	return 110
}

// largeNChain builds the synthetic large-N benchmark chain: a side x side
// lattice random walk (rate 1 to each neighbour) with a uniform rate-delta
// absorption edge from every cell to one absorbing state. The paper's SPN
// models top out near 10^4 states, so the workload that shows where the
// solver backends part ways is synthetic by necessity — the lattice is the
// canonical operator on which stationary iteration counts grow with N while
// preconditioned-Krylov counts stay nearly flat.
func largeNChain(side int) *ctmc.Chain {
	const delta = 0.02
	n := side * side
	b := linalg.NewSparseBuilder(n+1, n+1)
	idx := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := idx(r, c)
			deg := 0.0
			add := func(j int) {
				b.Add(i, j, 1)
				deg++
			}
			if r > 0 {
				add(idx(r-1, c))
			}
			if r < side-1 {
				add(idx(r+1, c))
			}
			if c > 0 {
				add(idx(r, c-1))
			}
			if c < side-1 {
				add(idx(r, c+1))
			}
			b.Add(i, n, delta)
			b.Add(i, i, -(deg + delta))
		}
	}
	chain, err := ctmc.NewChain(b.Build())
	if err != nil {
		fatal(err)
	}
	return chain
}

// largeNWorkloads times the transient sojourn solve on the synthetic
// large-N chain once per backend (plus auto, whose direct solve declines
// the lattice's one large strongly connected component, so ILU(0)-BiCGSTAB
// answers). Each backend gets a fresh chain so it pays
// its own one-time sub-generator assembly and (for the Krylov backends)
// ILU(0) factorization on the first op — exactly the per-chain amortization
// production sees.
func largeNWorkloads(side int) []Result {
	states := side * side
	var out []Result
	for _, spec := range []struct{ short, backend string }{
		{"ilu", ctmc.BackendILUBiCGSTAB},
		{"gmres", ctmc.BackendGMRES},
		{"auto", ctmc.BackendAuto},
	} {
		backend, err := ctmc.SolverBackendByName(spec.backend)
		if err != nil {
			fatal(err)
		}
		chain := largeNChain(side)
		chain.SetSolver(backend)
		r := measureSolves("solve_largeN_"+spec.short, states, func() {
			if _, err := chain.Solve(0); err != nil {
				fatal(err)
			}
		})
		r.States = chain.NumStates()
		out = append(out, r)
	}
	return out
}

// backendMatrixWorkloads times the paper-model sojourn solve at size n
// under every registered backend — the apples-to-apples matrix that shows
// which backend the auto heuristic should pick at paper scale.
func backendMatrixWorkloads(n int) []Result {
	_, g := mustPrepare(n)
	var out []Result
	for _, name := range ctmc.SolverBackendNames() {
		backend, err := ctmc.SolverBackendByName(name)
		if err != nil {
			fatal(err)
		}
		chain := ctmc.FromGraph(g)
		chain.SetSolver(backend)
		r := measureSolves("solve_backend_"+name, n, func() {
			if _, err := chain.Solve(g.Initial); err != nil {
				fatal(err)
			}
		})
		r.States = g.NumStates()
		out = append(out, r)
	}
	return out
}

// sweepWorkloads measures the full evaluation pipeline over the paper's
// TIDS grid at size n: through the memoization-free Direct path, which
// prepares every point in full, with and without the WithWarmStart
// spelling (sweep_cold and sweep_warm; the option changes nothing, so the
// two measure the same work and are kept for trajectory continuity), and
// through a fresh memoizing engine per op, which explores once and
// patches every later point.
func sweepWorkloads(n int) []Result {
	cfg := core.DefaultConfig()
	cfg.N = n

	prev := core.SetDefaultEvaluator(core.Direct{})
	rCold := measureSolves("sweep_cold", n, func() {
		if _, err := core.SweepTIDS(cfg, core.PaperTIDSGrid); err != nil {
			fatal(err)
		}
	})
	rWarm := measureSolves("sweep_warm", n, func() {
		if _, err := core.SweepTIDSOpts(cfg, core.PaperTIDSGrid, core.SweepOpts{WarmStart: true}); err != nil {
			fatal(err)
		}
	})
	core.SetDefaultEvaluator(prev)

	rEngine := measure("sweep_engine", n, func() {
		e := engine.New(engine.Options{})
		prev := core.SetDefaultEvaluator(e)
		if _, err := core.SweepTIDS(cfg, core.PaperTIDSGrid); err != nil {
			core.SetDefaultEvaluator(prev)
			fatal(err)
		}
		core.SetDefaultEvaluator(prev)
	})
	return []Result{rCold, rWarm, rEngine}
}

// denseTIDSGrid returns points log-spaced detection intervals across
// [lo, hi] — the dense rate-only design-space walk the incremental
// workloads sweep (the paper's 9-point grid is too coarse to show the
// per-point cost structure).
func denseTIDSGrid(points int, lo, hi float64) []float64 {
	grid := make([]float64, points)
	for i := range grid {
		t := float64(i) / float64(points-1)
		grid[i] = lo * math.Pow(hi/lo, t)
	}
	return grid
}

// incrementalWorkloads measures a dense 64-point rate-only TIDS sweep at
// size n twice. sweep_warm_dense runs it through the Direct evaluator, a
// full prepare per point, as the unpatched reference. sweep_incremental
// runs it through a fresh engine per op, so nothing is a cache hit: the
// first point pays a full prepare and every later point re-rates the
// shared graph, patches the cached generator pattern in place, and
// re-solves — exactly, through the reused SCC-condensed block-triangular
// factorization, or through the working chain's ILU(0)-BiCGSTAB ladder
// when the pattern is too cyclic for it. The ratio of the two is the
// per-point algorithmic saving, not caching. Before timing, the
// incremental sweep is checked point-for-point against a full prepare per
// point (core.Analyze) to 1e-10 relative — the incremental numbers mean
// nothing unless the results are identical.
func incrementalWorkloads(n int) []Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	grid := denseTIDSGrid(64, 5, 1200)

	prev := core.SetDefaultEvaluator(core.Direct{})
	defer core.SetDefaultEvaluator(prev)
	incremental := func() ([]core.SweepPoint, error) {
		prev := core.SetDefaultEvaluator(engine.New(engine.Options{}))
		defer core.SetDefaultEvaluator(prev)
		return core.SweepTIDSOpts(cfg, grid, core.SweepOpts{Incremental: true})
	}

	incPts, err := incremental()
	if err != nil {
		fatal(err)
	}
	for i, tids := range grid {
		c := cfg
		c.TIDS = tids
		want, err := core.Analyze(c)
		if err != nil {
			fatal(err)
		}
		got := incPts[i].Result
		if relDiff(want.MTTSF, got.MTTSF) > 1e-10 || relDiff(want.Ctotal, got.Ctotal) > 1e-10 {
			fatal(fmt.Errorf("sweep_incremental: TIDS=%v diverges from a full prepare: MTTSF %v vs %v, Ctotal %v vs %v",
				tids, got.MTTSF, want.MTTSF, got.Ctotal, want.Ctotal))
		}
	}

	rWarm := measureSolves("sweep_warm_dense", n, func() {
		if _, err := core.SweepTIDSOpts(cfg, grid, core.SweepOpts{WarmStart: true}); err != nil {
			fatal(err)
		}
	})

	p0, rf0 := ctmc.PatchedSolves(), ctmc.Refactorizations()
	ops := 0
	rInc := measureSolves("sweep_incremental", n, func() {
		ops++
		if _, err := incremental(); err != nil {
			fatal(err)
		}
	})
	if ops > 0 {
		rInc.PatchedSolvesPerOp = (ctmc.PatchedSolves() - p0) / uint64(ops)
		rInc.RefactorizationsPerOp = (ctmc.Refactorizations() - rf0) / uint64(ops)
	}
	fmt.Printf("%-20s %d-point grid: %d patched solves/op, %d refactorizations/op\n",
		"sweep_incremental", len(grid), rInc.PatchedSolvesPerOp, rInc.RefactorizationsPerOp)
	return []Result{rWarm, rInc}
}

// relDiff is the relative difference of two positive metrics.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// sensitivityWorkload measures the forward-sensitivity pass at size n: all
// perturbable parameters differentiated from one prepared model's cached
// solution and factorization — one extra preconditioned solve (plus two
// perturbed model builds) per parameter, no re-exploration.
func sensitivityWorkload(n int) Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	p, err := core.Prepare(cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := p.Solution(); err != nil {
		fatal(err)
	}
	r := measureSolves("sensitivity_grad", n, func() {
		if _, err := p.ForwardSensitivities(nil); err != nil {
			fatal(err)
		}
	})
	r.States = p.Graph.NumStates()
	return r
}

// frontierWorkload measures the design-space Pareto frontier (the paper's
// Section 5 tradeoff search) through a fresh engine per op.
func frontierWorkload(n int) Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	return measure("frontier_engine", n, func() {
		e := engine.New(engine.Options{})
		prev := core.SetDefaultEvaluator(e)
		if _, err := core.TradeoffFrontier(cfg, core.DefaultDesignSpace()); err != nil {
			core.SetDefaultEvaluator(prev)
			fatal(err)
		}
		core.SetDefaultEvaluator(prev)
	})
}

// frontierAdaptiveWorkload measures the active-learning frontier driver
// cold: each op builds a fresh engine (empty cache) and runs
// AdaptiveFrontier over a 16-column TIDS grid at size n, so the number is
// the full cost of reaching the exact Pareto frontier without grid
// enumeration. Before timing, the harness proves the claim the workload
// exists to record: the adaptive frontier must be identical to the
// full-grid frontier, and the loop must have spent at most 40% of the
// grid's evaluations — a silent economy regression fails the bench run
// outright instead of drifting into the baseline.
func frontierAdaptiveWorkload(n int) Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	space := core.DefaultDesignSpace()
	space.TIDSGrid = []float64{5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480, 600, 900, 1200}

	e := engine.New(engine.Options{})
	adaptive, evals, err := e.AdaptiveFrontier(context.Background(), cfg, engine.FrontierOptions{Space: space}, nil)
	if err != nil {
		fatal(err)
	}
	cfgs := space.Enumerate(cfg)
	results, err := e.EvalBatch(cfgs)
	if err != nil {
		fatal(err)
	}
	points := make([]core.DesignPoint, len(results))
	for i, res := range results {
		points[i] = core.DesignPoint{
			M: cfgs[i].M, TIDS: cfgs[i].TIDS, Detection: cfgs[i].Detection,
			MTTSF: res.MTTSF, Ctotal: res.Ctotal,
		}
	}
	want := core.ParetoFrontier(points)
	if len(adaptive) != len(want) {
		fatal(fmt.Errorf("frontier_adaptive: adaptive frontier has %d points, full grid %d", len(adaptive), len(want)))
	}
	for i := range want {
		if adaptive[i] != want[i] {
			fatal(fmt.Errorf("frontier_adaptive: frontier point %d diverged: got %+v, want %+v", i, adaptive[i], want[i]))
		}
	}
	if total := space.Size(); evals*5 > total*2 {
		fatal(fmt.Errorf("frontier_adaptive: %d evals on a %d-point grid exceeds the 40%% economy bound", evals, total))
	}

	r := measure("frontier_adaptive", n, func() {
		fresh := engine.New(engine.Options{})
		if _, _, err := fresh.AdaptiveFrontier(context.Background(), cfg, engine.FrontierOptions{Space: space}, nil); err != nil {
			fatal(err)
		}
	})
	r.EvalsPerOp = evals
	r.GridPoints = space.Size()
	return r
}

// metricsOverheadWorkload pins the price of armed telemetry on the solve
// hot path. It times the identical sojourn solve twice — instrumentation
// armed (the production default) and disarmed — and fails the run outright
// when arming changes the allocation count: the stage-span and
// latency-histogram path must stay allocation-free, so observing a solve
// never perturbs the solve it observes. Both results are recorded, so the
// perf trajectory tracks the armed overhead itself, not just its existence.
func metricsOverheadWorkload(n int) []Result {
	// The raw instruments must be allocation-free outright, independent of
	// what the solve around them does.
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_scratch_total", "scratch counter for the alloc pin")
	hist := reg.Histogram("bench_scratch_seconds", "scratch histogram for the alloc pin", obs.LatencyBuckets)
	if a := testing.AllocsPerRun(1000, func() { ctr.Inc(); hist.Observe(0.003) }); a != 0 {
		fatal(fmt.Errorf("metrics_overhead: one counter+histogram record costs %v allocs, want 0", a))
	}

	_, g := mustPrepare(n)
	run := func(name string, armed bool) Result {
		obs.SetArmed(armed)
		chain := ctmc.FromGraph(g)
		r := measureSolves(name, n, func() {
			if _, err := chain.Solve(g.Initial); err != nil {
				fatal(err)
			}
		})
		r.States = g.NumStates()
		return r
	}
	rOff := run("metrics_overhead_off", false)
	rOn := run("metrics_overhead", true)
	obs.SetArmed(true)
	if rOn.AllocsPerOp != rOff.AllocsPerOp {
		fatal(fmt.Errorf("metrics_overhead: armed solve costs %d allocs/op vs %d disarmed — instrumentation must not allocate",
			rOn.AllocsPerOp, rOff.AllocsPerOp))
	}
	overhead := float64(rOn.NsPerOp-rOff.NsPerOp) / float64(rOff.NsPerOp) * 100
	fmt.Printf("%-20s armed instrumentation adds %+.2f%% ns/op, %d allocs/op (solve kernel)\n",
		"metrics_overhead", overhead, rOn.AllocsPerOp-rOff.AllocsPerOp)
	return []Result{rOn, rOff}
}

// serveBatchWorkload measures the evaluation service's HTTP serving path:
// an in-process server (internal/service over a fresh engine) answering
// POST /v1/batch sweeps over the paper's TIDS grid at size n. The cache is
// warmed first, so the numbers isolate the wire overhead the service adds
// per request — JSON round trips, admission control, dispatch — which is
// the requests/sec trajectory a remote-sweep deployment rides on; p99
// captures the tail under GOMAXPROCS concurrent clients.
func serveBatchWorkload(n int) Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	cfgs := make([]core.Config, len(core.PaperTIDSGrid))
	for i, tids := range core.PaperTIDSGrid {
		cfgs[i] = cfg
		cfgs[i].TIDS = tids
	}

	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(service.New(service.Options{Backend: eng}))
	defer ts.Close()
	const requests = 256
	clients := runtime.GOMAXPROCS(0)
	// Keep one idle connection per concurrent client (the transport
	// default of 2 per host would close and re-dial connections under
	// concurrency, and the workload would measure TCP churn instead of
	// the service's dispatch cost).
	hc := ts.Client()
	if tr, ok := hc.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = clients
	}
	client := service.NewClient(ts.URL, hc)
	ctx := context.Background()
	if _, err := client.EvalBatch(ctx, cfgs); err != nil { // warm the cache
		fatal(err)
	}
	latencies := make([]time.Duration, requests)
	var failed atomic.Int64
	start := time.Now()
	core.ForEachIndexed(requests, clients, func(i int) {
		t0 := time.Now()
		if _, err := client.EvalBatch(ctx, cfgs); err != nil {
			failed.Add(1)
		}
		latencies[i] = time.Since(t0)
	})
	wall := time.Since(start)
	if failed.Load() > 0 {
		fatal(fmt.Errorf("serve_batch: %d of %d requests failed", failed.Load(), requests))
	}

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	r := Result{
		Name:       "serve_batch",
		N:          n,
		Iterations: requests,
		NsPerOp:    int64(total) / requests,
		ReqPerSec:  float64(requests) / wall.Seconds(),
		P99Ns:      int64(sorted[requests*99/100]),
	}
	fmt.Printf("%-20s N=%-4d %12d ns/op  %8.0f req/s  p99 %s (%d-point warm batches, %d clients)\n",
		r.Name, n, r.NsPerOp, r.ReqPerSec, time.Duration(r.P99Ns), len(cfgs), clients)
	return r
}

// serveBatchFaultyWorkload is serve_batch under an adversarial transport:
// a deterministic fault plan injects a transient 503 (with Retry-After) on
// 5% of requests, and the resilient client must complete the identical
// warm sweep anyway — every batch byte-identical to the fault-free
// reference — by absorbing the failures with retries. The headline numbers
// are the retry count (how much schedule was absorbed) and p99 (what the
// tail paid for it); the acceptance bar is p99 staying within a small
// multiple of fault-free serve_batch.
func serveBatchFaultyWorkload(n int) Result {
	cfg := core.DefaultConfig()
	cfg.N = n
	cfgs := make([]core.Config, len(core.PaperTIDSGrid))
	for i, tids := range core.PaperTIDSGrid {
		cfgs[i] = cfg
		cfgs[i].TIDS = tids
	}

	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(service.New(service.Options{Backend: eng}))
	defer ts.Close()
	const requests = 256
	clients := runtime.GOMAXPROCS(0)
	hc := ts.Client()
	if tr, ok := hc.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = clients
	}
	client := service.NewResilientClient(ts.URL, hc, service.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	})
	ctx := context.Background()
	// Fault-free warm batch doubles as the byte-identity reference.
	want, err := client.EvalBatch(ctx, cfgs)
	if err != nil {
		fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		fatal(err)
	}

	faultinject.Enable(faultinject.Plan{
		Seed:  42,
		Rates: map[string]float64{faultinject.HTTPErr5xx: 0.05},
	})
	defer faultinject.Disable()
	latencies := make([]time.Duration, requests)
	var failed, mismatched atomic.Int64
	start := time.Now()
	core.ForEachIndexed(requests, clients, func(i int) {
		t0 := time.Now()
		got, err := client.EvalBatch(ctx, cfgs)
		latencies[i] = time.Since(t0)
		if err != nil {
			failed.Add(1)
			return
		}
		gotJSON, err := json.Marshal(got)
		if err != nil || !bytes.Equal(gotJSON, wantJSON) {
			mismatched.Add(1)
		}
	})
	wall := time.Since(start)
	fired := faultinject.FiredCounts()
	faultinject.Disable()
	if failed.Load() > 0 {
		fatal(fmt.Errorf("serve_batch_faulty: %d of %d requests failed despite retries", failed.Load(), requests))
	}
	if mismatched.Load() > 0 {
		fatal(fmt.Errorf("serve_batch_faulty: %d of %d responses not byte-identical to the fault-free reference", mismatched.Load(), requests))
	}

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	retries := client.RetryStats().Retries
	r := Result{
		Name:       "serve_batch_faulty",
		N:          n,
		Iterations: requests,
		NsPerOp:    int64(total) / requests,
		ReqPerSec:  float64(requests) / wall.Seconds(),
		P99Ns:      int64(sorted[requests*99/100]),
		Retries:    retries,
	}
	fmt.Printf("%-20s N=%-4d %12d ns/op  %8.0f req/s  p99 %s (5%% injected 503s: %d fired, %d retries, all byte-identical)\n",
		r.Name, n, r.NsPerOp, r.ReqPerSec, time.Duration(r.P99Ns), fired[faultinject.HTTPErr5xx], retries)
	return r
}

// measure times fn with the testing benchmark harness and reports it.
func measure(name string, n int, fn func()) Result {
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	r := Result{
		Name:        name,
		N:           n,
		Iterations:  br.N,
		NsPerOp:     br.NsPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	fmt.Printf("%-20s N=%-4d %12d ns/op %10d B/op %8d allocs/op\n",
		name, n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	return r
}

// printComparison renders per-workload speedups of cur against the run
// stored at path, matching workloads by (name, N). With gate > 0 it
// returns the names of workloads that regressed (slowed down) by more than
// the gate factor and are not allow-listed.
func printComparison(path string, cur File, gate float64, allow map[string]bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	type key struct {
		name string
		n    int
	}
	old := make(map[key]Result, len(base.Workloads))
	for _, w := range base.Workloads {
		old[key{w.Name, w.N}] = w
	}
	var regressed []string
	fmt.Printf("\nvs %s (%s):\n", base.Revision, path)
	fmt.Printf("%-20s %-5s %10s %10s %12s %12s\n", "workload", "N", "speedup", "allocs", "ns/op old", "ns/op new")
	seen := make(map[key]bool, len(cur.Workloads))
	for _, w := range cur.Workloads {
		seen[key{w.Name, w.N}] = true
		o, ok := old[key{w.Name, w.N}]
		if !ok {
			// Visible, so a preset/baseline mismatch cannot silently
			// exempt a workload from the gate.
			fmt.Printf("%-20s %-5d        (no baseline entry)\n", w.Name, w.N)
			continue
		}
		if w.NsPerOp == 0 {
			// A degenerate measurement is a coverage loss, not a pass.
			fmt.Printf("%-20s %-5d        (unmeasured this run)\n", w.Name, w.N)
			if gate > 0 && !allow[w.Name] {
				regressed = append(regressed, fmt.Sprintf("%s/N=%d (unmeasured)", w.Name, w.N))
			}
			continue
		}
		speedup := float64(o.NsPerOp) / float64(w.NsPerOp)
		allocs := "n/a"
		if o.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("%.2fx", float64(o.AllocsPerOp)/float64(max(w.AllocsPerOp, 1)))
		}
		mark := ""
		if gate > 0 && speedup < 1/gate {
			if allow[w.Name] {
				mark = "  (regressed, allow-listed)"
			} else {
				mark = "  REGRESSED"
				regressed = append(regressed, fmt.Sprintf("%s/N=%d (%.2fx)", w.Name, w.N, speedup))
			}
		}
		fmt.Printf("%-20s %-5d %9.2fx %10s %12d %12d%s\n",
			w.Name, w.N, speedup, allocs, o.NsPerOp, w.NsPerOp, mark)
	}
	if gate > 0 {
		// A baseline workload this run no longer measures is a coverage
		// loss, not a pass: trip the gate until the baseline is
		// regenerated alongside the workload change.
		for _, w := range base.Workloads {
			if !seen[key{w.Name, w.N}] && !allow[w.Name] {
				fmt.Printf("%-20s %-5d        (missing from this run)  REGRESSED\n", w.Name, w.N)
				regressed = append(regressed, fmt.Sprintf("%s/N=%d (missing)", w.Name, w.N))
			}
		}
	}
	return regressed, nil
}

// printTrajectory renders the repository's whole performance trajectory:
// every committed BENCH_*.json, ordered by run date (the revision named
// "baseline" always first), as one speedup-over-baseline table per
// workload row — readable without diffing JSON files.
func printTrajectory() error {
	paths := committedBenchFiles()
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json files in the current directory")
	}
	files := make([]File, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			// One unreadable or foreign file must not take down the whole
			// table: the trajectory spans many revisions, and older files
			// legitimately predate newer workloads (rendered "n/a" below)
			// or may be damaged.
			fmt.Fprintf(os.Stderr, "bench: skipping %s: %v\n", path, err)
			continue
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: skipping unparseable %s: %v\n", path, err)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fmt.Errorf("no readable BENCH_*.json files")
	}
	sort.SliceStable(files, func(i, j int) bool {
		if (files[i].Revision == "baseline") != (files[j].Revision == "baseline") {
			return files[i].Revision == "baseline"
		}
		return files[i].Date < files[j].Date
	})

	type key struct {
		name string
		n    int
	}
	perFile := make([]map[key]Result, len(files))
	var order []key
	seen := make(map[key]bool)
	for fi, f := range files {
		perFile[fi] = make(map[key]Result, len(f.Workloads))
		for _, w := range f.Workloads {
			k := key{w.Name, w.N}
			perFile[fi][k] = w
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}

	base := perFile[0]
	fmt.Printf("performance trajectory (speedup vs %s; raw time where the baseline lacks the workload)\n\n", files[0].Revision)
	fmt.Printf("%-24s %-7s", "workload", "N")
	for _, f := range files {
		fmt.Printf(" %12s", f.Revision)
	}
	fmt.Println()
	for _, k := range order {
		fmt.Printf("%-24s %-7d", k.name, k.n)
		for fi := range files {
			w, ok := perFile[fi][k]
			if !ok || w.NsPerOp == 0 {
				fmt.Printf(" %12s", "n/a")
				continue
			}
			if b, ok := base[k]; ok && b.NsPerOp > 0 {
				fmt.Printf(" %11.2fx", float64(b.NsPerOp)/float64(w.NsPerOp))
			} else {
				// No baseline entry: show the raw time so a later run can
				// still be eyeballed against its neighbours.
				fmt.Printf(" %12s", fmtNs(w.NsPerOp))
			}
		}
		fmt.Println()
	}
	fmt.Printf("\ncolumns are runs in date order; \"n/a\" = workload absent or unmeasured in that run; raw times shown where the baseline run lacks the workload\n")
	return nil
}

// fmtNs renders a nanosecond count compactly (1.23ms style).
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// committedBenchFiles lists the BENCH_*.json files the trajectory renders:
// the git-tracked set when available (local, uncommitted runs would skew
// the table), falling back to a plain glob outside a git checkout.
func committedBenchFiles() []string {
	out, err := exec.Command("git", "ls-files", "--", "BENCH_*.json").Output()
	if err == nil {
		if tracked := strings.Fields(strings.TrimSpace(string(out))); len(tracked) > 0 {
			return tracked
		}
	}
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return nil
	}
	return paths
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
