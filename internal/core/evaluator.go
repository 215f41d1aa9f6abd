package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Evaluator is the seam between the model layer and the evaluation-engine
// layer: anything that can turn Configs into Results. Package core ships
// Direct (build-and-solve every time, bounded worker pool); package
// internal/engine wraps an Evaluator with memoization and installs itself
// as the process default, so every sweep, frontier, figure, and baseline
// routes through one shared cache.
type Evaluator interface {
	// Eval evaluates one configuration.
	Eval(cfg Config) (*Result, error)
	// EvalBatch evaluates a slice of configurations with bounded
	// parallelism, preserving order. results[i] corresponds to cfgs[i];
	// on error the returned error wraps every failing point's error and
	// results may be partially filled.
	EvalBatch(cfgs []Config) ([]*Result, error)
	// Prepared returns the built (and possibly cached) model/graph/chain
	// for cfg, without forcing the solve: a DeltaSession anchors on it and
	// patches later grid points instead of re-preparing them.
	Prepared(cfg Config) (*Prepared, error)
	// EvalWith evaluates cfg, calling prepare for the built (and
	// typically patched and solved) evaluation state only when no recorded
	// Result exists: the memoizing engine serves repeats straight from
	// its result cache — skipping the rebuild and solve entirely — and
	// records fresh points so later Evals hit. The returned Result is
	// the caller's own copy.
	EvalWith(cfg Config, prepare func() (*Prepared, error)) (*Result, error)
	// WorkerBound reports the batch-parallelism cap (0 means GOMAXPROCS),
	// so drivers that fan work out themselves — the incremental sweep
	// chunks — honor the same bound EvalBatch does.
	WorkerBound() int
}

// defaultEvaluator is the Evaluator used by SweepTIDS, ExploreDesignSpace,
// and the other grid drivers in this package.
var defaultEvaluator atomic.Value // of evaluatorBox

type evaluatorBox struct{ ev Evaluator }

func init() { defaultEvaluator.Store(evaluatorBox{Direct{}}) }

// DefaultEvaluator returns the Evaluator grid drivers currently route
// through.
func DefaultEvaluator() Evaluator { return defaultEvaluator.Load().(evaluatorBox).ev }

// SetDefaultEvaluator swaps the process-wide Evaluator and returns the
// previous one. The evaluation engine calls this at init; tests use it to
// pin the direct path.
func SetDefaultEvaluator(ev Evaluator) Evaluator {
	if ev == nil {
		ev = Direct{}
	}
	prev := DefaultEvaluator()
	defaultEvaluator.Store(evaluatorBox{ev})
	return prev
}

// Direct is the memoization-free Evaluator: every Eval builds the SPN,
// explores the graph, and solves the CTMC. EvalBatch runs a bounded worker
// pool — workers, not goroutine-per-point — so a 10k-point grid spawns
// GOMAXPROCS goroutines, not 10k.
type Direct struct {
	// Workers bounds batch parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Eval implements Evaluator.
func (d Direct) Eval(cfg Config) (*Result, error) { return Analyze(cfg) }

// Prepared implements Evaluator: a fresh build every call.
func (d Direct) Prepared(cfg Config) (*Prepared, error) { return Prepare(cfg) }

// EvalWith implements Evaluator: Direct records nothing, so it
// always prepares and derives the Result from the (memoized) solve.
func (d Direct) EvalWith(cfg Config, prepare func() (*Prepared, error)) (*Result, error) {
	p, err := prepare()
	if err != nil {
		return nil, err
	}
	res, err := p.Analyze()
	if err != nil {
		return nil, err
	}
	r := *res
	r.Config = cfg
	return &r, nil
}

// WorkerBound implements Evaluator.
func (d Direct) WorkerBound() int { return d.Workers }

// EvalBatch implements Evaluator.
func (d Direct) EvalBatch(cfgs []Config) ([]*Result, error) {
	return RunBatch(cfgs, d.Workers, d.Eval)
}

// ForEachIndexed runs fn(i) for every i in [0, n) over at most workers
// goroutines (0 means GOMAXPROCS) — the one bounded indexed fan-out every
// batch driver shares (RunBatch, the incremental sweep chunks, the
// evaluation service's per-point batch dispatch, bench client pools).
func ForEachIndexed(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunBatch fans eval over cfgs with at most workers concurrent
// evaluations (0 means GOMAXPROCS), preserving order and joining per-point
// errors. It is the shared pool both Direct and the memoizing engine use.
func RunBatch(cfgs []Config, workers int, eval func(Config) (*Result, error)) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	ForEachIndexed(len(cfgs), workers, func(i int) {
		results[i], errs[i] = eval(cfgs[i])
	})
	return results, joinPointErrors(cfgs, errs)
}

// joinPointErrors joins the per-point errors of a batch over cfgs, each
// labelled with its index and the point's grid coordinates; nil when every
// point succeeded.
func joinPointErrors(cfgs []Config, errs []error) error {
	var joined error
	for i, err := range errs {
		if err != nil {
			pointErr := fmt.Errorf("core: batch point %d (TIDS=%v, m=%d, detection=%v): %w",
				i, cfgs[i].TIDS, cfgs[i].M, cfgs[i].Detection, err)
			if joined == nil {
				joined = pointErr
			} else {
				joined = fmt.Errorf("%w; %w", joined, pointErr)
			}
		}
	}
	return joined
}
