package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// EvalBatchIncremental evaluates a batch through the incremental re-solve
// path, core.EvalIncremental — the same driver every core sweep takes:
// configurations are grouped by core.StructuralKey, each group is cut into
// contiguous chunks, and the chunks run in parallel under the engine's
// worker bound, each walking its points through one core.DeltaSession. The
// first miss of a chunk pays a full prepare (cached in the prepared LRU)
// and anchors the session; every later rate-only miss re-rates the shared
// graph, patches the cached generator pattern in place, and re-solves
// through the session's reused exact block-triangular factorization (or
// the working chain's ILU(0)-BiCGSTAB ladder for a pattern it declines). Cache hits cost nothing, exactly as in
// EvalBatch, and every fresh Result is recorded in the Result cache.
// Per-point errors are joined, order is preserved, and the context is
// checked before each point like EvalBatchContext.
func (e *Engine) EvalBatchIncremental(ctx context.Context, cfgs []core.Config) ([]*core.Result, error) {
	results, errs := core.EvalIncremental(ctx, e, cfgs, e.workers)
	for i, err := range errs {
		if err != nil && !errors.Is(err, ctx.Err()) {
			errs[i] = fmt.Errorf("config %d: %w", i, err)
		}
	}
	return results, errors.Join(errs...)
}
