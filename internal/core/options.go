package core

import (
	"context"
	"fmt"
)

// SweepOption configures how a grid driver (SweepTIDS, ExploreDesignSpace,
// TradeoffFrontier) evaluates its points. Options compose left to right.
// Every driver fans its points over the default evaluator whatever the
// options; only WithContext changes behaviour.
type SweepOption func(*sweepConfig)

// sweepConfig is the resolved option set.
type sweepConfig struct {
	ctx context.Context
}

// WithWarmStart is kept for compatibility and has no effect: every sweep
// already reuses its neighbours' graph, factorization and sojourn vector.
func WithWarmStart() SweepOption {
	return func(*sweepConfig) {}
}

// WithIncremental is kept for compatibility and has no effect: under the
// memoizing engine every miss already patches a session of its
// structural family and re-solves (PreparedDelta).
func WithIncremental() SweepOption {
	return func(*sweepConfig) {}
}

// WithContext makes the driver honor ctx: evaluation stops with ctx.Err()
// at the next point boundary after cancellation (an in-flight solve runs
// to completion — solver kernels are not preemptible — but no further
// point starts).
func WithContext(ctx context.Context) SweepOption {
	return func(o *sweepConfig) { o.ctx = ctx }
}

func applySweepOptions(opts []SweepOption) sweepConfig {
	var o sweepConfig
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// ctxErr reports the option context's cancellation state (nil when no
// context was supplied).
func (o sweepConfig) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	if err := o.ctx.Err(); err != nil {
		return fmt.Errorf("core: sweep canceled: %w", err)
	}
	return nil
}
