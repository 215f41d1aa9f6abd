package main

// Answer checks. Each workload compares what the program returned against a
// reference that does not share the path under test: the pool solved before
// the server booted, a point's own first answer, core.Analyze (the
// memoization-free direct path), or a full-grid Pareto frontier.

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"reflect"

	"repro/internal/core"
)

// relTol is the tolerance of the checks that compare against a path with a
// different solve order (warm or patched re-solves against cold ones).
const relTol = 1e-9

// exactValues lists every value of a Result except its Config, its
// absorption split and its Sensitivities.
func exactValues(r *core.Result) [16]float64 {
	b, p := r.CostBreakdown, r.Power
	return [...]float64{
		r.MTTSF, r.Ctotal, b.GC, b.Status, b.Rekey, b.IDS, b.Beacon, b.MP,
		float64(r.States), float64(r.Transient), r.Utilization,
		p.RadioW, p.IdleW, p.TotalW, p.PerNodeW, r.MissionEnergyJ,
	}
}

// split is the absorption split: the program sums it over a map, in
// iteration order, so two solves of one point may differ in its last bits.
func split(r *core.Result) [3]float64 { return [...]float64{r.ProbC1, r.ProbC2, r.ProbDepleted} }

// resultFields is the number of core.Result fields the checks cover
// (Config, the 16 exact values in 8 fields, the 3-field split and
// Sensitivities); the test pins it so a new field cannot slip past them.
const resultFields = 13

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// sameResult reports whether two Results carry identical values, floats
// compared bit for bit — what byte-identical JSON encodings amount to.
func sameResult(a, b *core.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Sensitivities) > 0 || len(b.Sensitivities) > 0 {
		ja, errA := json.Marshal(a)
		jb, errB := json.Marshal(b)
		return errA == nil && errB == nil && string(ja) == string(jb)
	}
	va, vb := exactValues(a), exactValues(b)
	sa, sb := split(a), split(b)
	return a.Config == b.Config && sameBits(va[:], vb[:]) && sameBits(sa[:], sb[:])
}

// answerPrint is what the repeat check keeps of a point's first answer: a
// hash of its exact values and its absorption split. A repeat may have been
// re-solved after an eviction, so its split is compared within relTol and
// everything else exactly.
type answerPrint struct {
	exact uint64
	split [3]float64
}

func printOf(r *core.Result) answerPrint {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range exactValues(r) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Sensitivities)))
	h.Write(buf[:])
	return answerPrint{exact: h.Sum64(), split: split(r)}
}

// matches reports whether r answers the same as the answer p was taken of.
func (p answerPrint) matches(r *core.Result) bool {
	if r == nil {
		return false
	}
	q := printOf(r)
	return q.exact == p.exact && relClose(q.split[0], p.split[0]) &&
		relClose(q.split[1], p.split[1]) && relClose(q.split[2], p.split[2])
}

func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d/m <= relTol
	}
	return d <= relTol
}

// closeResult compares the two paper metrics within relTol.
func closeResult(a, b *core.Result) bool {
	return a != nil && b != nil && relClose(a.MTTSF, b.MTTSF) && relClose(a.Ctotal, b.Ctotal)
}

// sameFrontier reports whether two frontiers are identical point for point.
func sameFrontier(a, b []core.DesignPoint) bool {
	return reflect.DeepEqual(a, b) || (len(a) == 0 && len(b) == 0)
}

// gridFrontier folds a fully evaluated design grid into its Pareto frontier.
func gridFrontier(cfgs []core.Config, results []*core.Result) []core.DesignPoint {
	points := make([]core.DesignPoint, len(results))
	for i, res := range results {
		points[i] = core.DesignPoint{
			M: cfgs[i].M, TIDS: cfgs[i].TIDS, Detection: cfgs[i].Detection,
			MTTSF: res.MTTSF, Ctotal: res.Ctotal,
		}
	}
	return core.ParetoFrontier(points)
}
