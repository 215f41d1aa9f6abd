// Command bench runs the kernel microbenchmarks of one evaluation —
// state-space exploration, generator assembly and transposition, the
// transient sojourn solve, one patched point, the forward-sensitivity pass,
// and the solve under each backend on the paper model and on a synthetic
// large-N lattice — and writes the measurements to a BENCH_<rev>.json
// artifact. The end-to-end paths built on these kernels (sweeps, frontiers,
// serving, the cluster) are measured by perfbench (BENCHMARK.json), not
// here.
//
// Usage:
//
//	bench [-preset small|full] [-rev name] [-o file] [-baseline file]
//	      [-gate factor] [-trajectory]
//
// The small preset (N = 30, 60) finishes in well under a minute and is what
// CI runs; the full preset adds the paper's N = 100. With -baseline the
// harness prints a per-workload speedup table against an earlier run; with
// -gate it additionally exits nonzero when any workload regressed by more
// than the given factor, or has no entry in the baseline, or the baseline
// has an entry this run did not measure (CI's perf gate). -rev defaults to
// the short git revision of the working tree. -trajectory skips measuring
// entirely and renders every committed BENCH_*.json as one
// speedup-over-baseline table per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/spn"
)

// Result is one workload's measurement, in the units `go test -bench`
// reports plus the kernel's state and solver counters.
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
	largest := ns[len(ns)-1]
	f.Workloads = append(f.Workloads, sensitivityWorkload(largest))
	f.Workloads = append(f.Workloads, backendMatrixWorkloads(largest)...)
	f.Workloads = append(f.Workloads, largeNWorkloads(largeNSide(*preset))...)

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
		regressed, err := printComparison(*baseline, f, *gate)
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
	// Explore-dominated workload the perf trajectory tracks.
	states := 0
	rExplore := measure("explore_sweep", n, func() {
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
	})
	rExplore.States = states
	if rExplore.NsPerOp > 0 {
		rExplore.StatesPerSec = float64(states) / (float64(rExplore.NsPerOp) * 1e-9)
	}

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
	return []Result{rExplore, rAssemble, rTranspose, rSolve, reratePatchWorkload(cfg)}
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
// returns the workloads that regressed (slowed down) by more than the gate
// factor, plus every row one side lacks: a workload with no baseline entry
// or a baseline entry this run did not measure is a coverage loss, not a
// pass, until the baseline is regenerated alongside the workload change.
func printComparison(path string, cur File, gate float64) ([]string, error) {
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
	trip := func(w Result, why string) {
		if gate > 0 {
			regressed = append(regressed, fmt.Sprintf("%s/N=%d (%s)", w.Name, w.N, why))
		}
	}
	fmt.Printf("\nvs %s (%s):\n", base.Revision, path)
	fmt.Printf("%-20s %-5s %10s %10s %12s %12s\n", "workload", "N", "speedup", "allocs", "ns/op old", "ns/op new")
	seen := make(map[key]bool, len(cur.Workloads))
	for _, w := range cur.Workloads {
		seen[key{w.Name, w.N}] = true
		o, ok := old[key{w.Name, w.N}]
		if !ok {
			fmt.Printf("%-20s %-5d        (no baseline entry)\n", w.Name, w.N)
			trip(w, "no baseline entry")
			continue
		}
		if w.NsPerOp == 0 {
			fmt.Printf("%-20s %-5d        (unmeasured this run)\n", w.Name, w.N)
			trip(w, "unmeasured")
			continue
		}
		speedup := float64(o.NsPerOp) / float64(w.NsPerOp)
		allocs := "n/a"
		if o.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("%.2fx", float64(o.AllocsPerOp)/float64(max(w.AllocsPerOp, 1)))
		}
		mark := ""
		if gate > 0 && speedup < 1/gate {
			mark = "  REGRESSED"
			trip(w, fmt.Sprintf("%.2fx", speedup))
		}
		fmt.Printf("%-20s %-5d %9.2fx %10s %12d %12d%s\n",
			w.Name, w.N, speedup, allocs, o.NsPerOp, w.NsPerOp, mark)
	}
	for _, w := range base.Workloads {
		if !seen[key{w.Name, w.N}] {
			fmt.Printf("%-20s %-5d        (missing from this run)\n", w.Name, w.N)
			trip(w, "missing")
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
