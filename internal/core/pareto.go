package core

import (
	"fmt"
	"sort"

	"repro/internal/shapes"
)

// DesignPoint is one candidate operating configuration of the IDS with its
// two competing metrics. The paper's goal — "identify optimal design
// settings under which the MTTSF metric can be best traded off for the
// communication cost metric or vice versa" — is exactly the Pareto
// frontier over these points.
type DesignPoint struct {
	M         int
	TIDS      float64
	Detection shapes.Kind
	MTTSF     float64
	Ctotal    float64
}

// Dominates reports whether p is at least as good as q on both metrics and
// strictly better on one (higher MTTSF, lower Ĉtotal).
func (p DesignPoint) Dominates(q DesignPoint) bool {
	if p.MTTSF < q.MTTSF || p.Ctotal > q.Ctotal {
		return false
	}
	return p.MTTSF > q.MTTSF || p.Ctotal < q.Ctotal
}

// DesignSpace enumerates the candidate grid.
type DesignSpace struct {
	Ms         []int
	TIDSGrid   []float64
	Detections []shapes.Kind
}

// DefaultDesignSpace returns the paper's evaluation grid: m in {3,5,7,9},
// the Figure TIDS grid, and all three detection functions.
func DefaultDesignSpace() DesignSpace {
	return DesignSpace{
		Ms:         append([]int(nil), PaperMGrid...),
		TIDSGrid:   append([]float64(nil), PaperTIDSGrid...),
		Detections: shapes.Kinds(),
	}
}

// Size returns the number of grid points.
func (d DesignSpace) Size() int {
	return len(d.Ms) * len(d.TIDSGrid) * len(d.Detections)
}

// Enumerate materializes the grid as configurations patched onto base, in
// (m, TIDS, detection) loop order.
func (d DesignSpace) Enumerate(base Config) []Config {
	cfgs := make([]Config, 0, d.Size())
	for _, m := range d.Ms {
		for _, tids := range d.TIDSGrid {
			for _, k := range d.Detections {
				c := base
				c.M = m
				c.TIDS = tids
				c.Detection = k
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// ExploreDesignSpace evaluates every grid point and returns all points
// (sorted by ascending Ĉtotal). Every point of a design space shares one
// reachability graph (m, TIDS and the detection shape only move rates), so
// the grid goes through the same driver as SweepTIDS: the points fan out
// over the default evaluator, and under the memoizing engine the first
// miss explores while every later one patches and re-solves. Design
// spaces overlap heavily with the TIDS sweeps of the figures, so with the
// memoizing engine installed most points are cache hits. WithContext makes
// it cancelable between points.
func ExploreDesignSpace(cfg Config, space DesignSpace, opts ...SweepOption) ([]DesignPoint, error) {
	if space.Size() == 0 {
		return nil, fmt.Errorf("core: empty design space")
	}
	cfgs := space.Enumerate(cfg)
	results, err := evalSweep(applySweepOptions(opts), cfgs)
	if err != nil {
		return nil, fmt.Errorf("core: design space: %w", err)
	}
	points := make([]DesignPoint, len(results))
	for i, res := range results {
		points[i] = DesignPoint{
			M: cfgs[i].M, TIDS: cfgs[i].TIDS, Detection: cfgs[i].Detection,
			MTTSF: res.MTTSF, Ctotal: res.Ctotal,
		}
	}
	sort.Slice(points, func(a, b int) bool { return points[a].Ctotal < points[b].Ctotal })
	return points, nil
}

// ParetoFrontier filters a design-point set down to its non-dominated
// members, sorted by ascending Ĉtotal (and therefore ascending MTTSF: on
// the frontier, paying more traffic must buy more survival). It is the
// batch form of FrontierMaintainer: the pre-sort pins which of two
// metric-identical points survives, then every point is folded in through
// the same incremental insert the streaming drivers use.
func ParetoFrontier(points []DesignPoint) []DesignPoint {
	sorted := append([]DesignPoint(nil), points...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Ctotal != sorted[b].Ctotal {
			return sorted[a].Ctotal < sorted[b].Ctotal
		}
		return sorted[a].MTTSF > sorted[b].MTTSF
	})
	fm := NewFrontierMaintainer()
	for _, p := range sorted {
		fm.Insert(p)
	}
	return fm.Frontier()
}

// TradeoffFrontier explores the design space and returns its Pareto
// frontier: the complete menu of optimal MTTSF-vs-cost tradeoffs the
// system designer can pick from. It accepts the same options as
// ExploreDesignSpace.
func TradeoffFrontier(cfg Config, space DesignSpace, opts ...SweepOption) ([]DesignPoint, error) {
	points, err := ExploreDesignSpace(cfg, space, opts...)
	if err != nil {
		return nil, err
	}
	return ParetoFrontier(points), nil
}
