// Adaptive Pareto-frontier driver: an active-learning loop that reaches
// the full-grid tradeoff frontier with a fraction of the grid's
// evaluations. The result cache seeds the frontier for free (the cache is
// the surrogate's training set, not just a replay accelerator), a cheap
// surrogate over (m, TIDS, detection) predicts each unevaluated
// candidate's optimistic outcome, and candidates are evaluated in order of
// expected frontier improvement — the dominated hypervolume their
// optimistic outcome would add — until no candidate can improve the
// frontier, the improvement threshold is met, or the eval budget runs out.
//
// The surrogate exploits two regularities of the model. Within one
// (m, detection) family, MTTSF is unimodal in TIDS and Ĉtotal is
// valley-shaped, which yields certified bounds once a family's peak (and
// cost valley) is bracketed by evaluated points: outside a bracket the
// nearest evaluated point toward it caps MTTSF and floors Ĉtotal, and a
// column beyond both brackets on the same side is strictly dominated by
// that neighbour outright (slopeDominated) — no family, reference
// included, is ever enumerated past its brackets. Across families of one
// detection kind, the MTTSF ratio between ADJACENT m rungs follows an
// empirical power law in TIDS — its excess over 1 roughly doubles per
// octave toward smaller TIDS and shrinks toward larger TIDS — so a ratio
// observed at one column bounds the ratio at nearby columns of the same
// detection kind; multi-rung bounds chain through the intermediate rungs
// rather than learning a compound shortcut (a shortcut calibrated on
// arbitrarily seeded columns underestimates, and one unsound member of a
// min() poisons the whole bound). Each detection kind's smallest-m
// reference family is bracketed first and seeds the frontier's cheap
// half; each next-larger family is anchored near the reference peak and
// hill-climbed until bracketed; everything else is pruned the moment even
// the optimistic combination of bounds cannot improve the frontier. The
// bracket rules are exact for any cache-seeding pattern; the ratio law is
// empirical with stress-tested margins, and the randomized-seeding test
// in frontier_test.go is the regression net that keeps it honest.
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// FrontierOptions configures AdaptiveFrontier.
type FrontierOptions struct {
	// Space is the candidate grid (zero value = core.DefaultDesignSpace()).
	Space core.DesignSpace
	// EvalBudget caps fresh model evaluations charged to this call (cache
	// hits are free); 0 means the grid size (no effective cap). When the
	// budget runs out the loop stops and reports the frontier found so
	// far — budget-bounded best effort, not an error.
	EvalBudget int
	// MinImprovement stops the loop once the best candidate's optimistic
	// hypervolume gain falls below this fraction of the current dominated
	// hypervolume. 0 keeps refining until no candidate's optimistic
	// outcome could improve the frontier at all.
	MinImprovement float64
	// Optimism scales the surrogate's uncertainty margins (default 1).
	// Larger values inflate the shape-transfer bounds, evaluating more
	// points before concluding convergence.
	Optimism float64
	// Gate, when set, is acquired around every fresh evaluation (never
	// around cache hits) — the HTTP service passes its solve semaphore
	// here so streamed frontier requests compete fairly with /v1/eval.
	Gate func(ctx context.Context) (release func(), err error)
	// Eval, when set, replaces the engine's own fresh-evaluation path
	// (EvalContext, which patches the family's pooled sessions) for
	// candidates the cache does not already hold — the cluster-wired
	// service routes frontier evaluations across its peers through this
	// seam. The substitute is expected to bound its own solver capacity,
	// so Gate is not consulted around it.
	Eval func(ctx context.Context, cfg core.Config) (*core.Result, error)
}

// FrontierRevision is one frontier update emitted by AdaptiveFrontier:
// an accepted point with its evictions and hypervolume effect, or the
// terminal revision (Done=true) carrying the converged frontier. The JSON
// encoding is the NDJSON line format of POST /v1/frontier.
type FrontierRevision struct {
	Generation  int                `json:"generation"`
	Point       *core.DesignPoint  `json:"point,omitempty"`
	Evicted     []core.DesignPoint `json:"evicted,omitempty"`
	Hypervolume float64            `json:"hypervolume"`
	Improvement float64            `json:"improvement"`
	// Evals counts fresh evaluations charged so far; Candidates is the
	// grid size, so Evals/Candidates is the fraction of the full grid the
	// adaptive loop actually paid for.
	Evals      int                `json:"evals"`
	Candidates int                `json:"candidates"`
	Done       bool               `json:"done,omitempty"`
	Frontier   []core.DesignPoint `json:"frontier,omitempty"`
}

// frontierCandidate is one grid point of the adaptive run.
type frontierCandidate struct {
	cfg  core.Config
	m    int
	tids float64
	det  shapes.Kind
	// metrics, valid once done.
	mttsf, ctotal float64
	done          bool
}

// frontierFamily is one (m, detection) slice of the grid, ascending TIDS.
type frontierFamily struct {
	m     int
	det   shapes.Kind
	cands []*frontierCandidate
	ref   *frontierFamily // shape reference for this detection kind
}

// frontierRun is the mutable state of one AdaptiveFrontier call.
type frontierRun struct {
	e        *Engine
	opts     FrontierOptions
	fm       *core.FrontierMaintainer
	families []*frontierFamily
	siblings map[shapes.Kind][]*frontierFamily // non-reference families per detection
	total    int
	budget   int
	evals    int
	maxC     float64 // highest Ĉtotal observed so far (acquisition clamp)
	emit     func(FrontierRevision) error
}

// AdaptiveFrontier computes the Pareto frontier of cfg's design space by
// active learning instead of grid enumeration. It returns the converged
// frontier (identical to TradeoffFrontier's whenever the loop runs to
// convergence within budget), the number of fresh evaluations charged, and
// the first error encountered. emit, when non-nil, receives one
// FrontierRevision per accepted frontier change plus a terminal Done
// revision; an emit error aborts the run (it is how a disconnected stream
// consumer cancels the loop between points).
func (e *Engine) AdaptiveFrontier(ctx context.Context, cfg core.Config, opts FrontierOptions, emit func(FrontierRevision) error) ([]core.DesignPoint, int, error) {
	sp := obs.StartStage(obs.StageFrontier)
	defer sp.End()
	if opts.Space.Size() == 0 {
		opts.Space = core.DefaultDesignSpace()
	}
	if opts.Optimism <= 0 {
		opts.Optimism = 1
	}
	r := &frontierRun{
		e:      e,
		opts:   opts,
		fm:     core.NewFrontierMaintainer(),
		total:  opts.Space.Size(),
		budget: opts.EvalBudget,
		emit:   emit,
	}
	if r.budget <= 0 {
		r.budget = r.total
	}
	r.enumerate(cfg, opts.Space)

	err := r.run(ctx)
	if err == nil {
		err = r.finish()
	}
	return r.fm.Frontier(), r.evals, err
}

// enumerate materializes the candidate families: one per (m, detection)
// pair, sorted by ascending TIDS so neighbour bounds are well-defined even
// on an unsorted grid. The smallest-m family of each detection kind
// becomes that kind's shape reference.
func (r *frontierRun) enumerate(cfg core.Config, space core.DesignSpace) {
	grid := append([]float64(nil), space.TIDSGrid...)
	sort.Float64s(grid)
	ms := append([]int(nil), space.Ms...)
	sort.Ints(ms)
	refs := make(map[shapes.Kind]*frontierFamily, len(space.Detections))
	r.siblings = make(map[shapes.Kind][]*frontierFamily, len(space.Detections))
	for _, m := range ms {
		for _, k := range space.Detections {
			fam := &frontierFamily{m: m, det: k}
			for _, tids := range grid {
				c := cfg
				c.M = m
				c.TIDS = tids
				c.Detection = k
				fam.cands = append(fam.cands, &frontierCandidate{cfg: c, m: m, tids: tids, det: k})
			}
			if refs[k] == nil {
				refs[k] = fam
			} else {
				r.siblings[k] = append(r.siblings[k], fam)
			}
			fam.ref = refs[k]
			r.families = append(r.families, fam)
		}
	}
}

func (r *frontierRun) run(ctx context.Context) error {
	// Phase 1 — seed from cache: every memoized grid point joins the
	// frontier for free. A warm engine (earlier sweeps, a snapshot
	// restore) can carry the frontier most of the way here.
	for _, fam := range r.families {
		for _, c := range fam.cands {
			if err := ctx.Err(); err != nil {
				return err
			}
			if res, ok := r.e.Cached(c.cfg); ok {
				if err := r.record(c, res.MTTSF, res.Ctotal); err != nil {
					return err
				}
			}
		}
	}
	// Phase 2 — bracket each detection kind's reference family: walk
	// outward from the cache-seeded argmax (or the grid midpoint on a
	// cold start) until the MTTSF peak and the Ĉtotal valley are both
	// bracketed by done points. The smallest-m family is where the cheap,
	// frontier-dense points concentrate, but it does not need full
	// enumeration: once the brackets certify the slopes, every column in
	// the tails beyond them is strictly dominated by the nearest done
	// point (slopeDominated) and is never evaluated at all.
	for _, fam := range r.families {
		if fam.ref != fam {
			continue
		}
		if err := r.bracketFamily(ctx, fam); err != nil {
			return err
		}
		if r.evals >= r.budget {
			return nil
		}
	}
	// Phase 3 — anchor the smallest sibling family of each detection kind
	// one grid column left of its reference's peak TIDS (the MTTSF peak
	// shifts toward smaller TIDS as m grows, so the left flank usually
	// lands at or near the sibling peak), then hill-climb outward until
	// the sibling's own peak — and then its cost valley's left edge — are
	// bracketed by done points. A certified bracket is what makes the
	// one-sided slope bounds in mUpper and cLower sound — without it,
	// every column outside the anchor would lean on an uncertified
	// shape-drift guess, which larger networks violate. Larger-m families
	// start from the cross-m ratio bounds these anchors feed and are only
	// evaluated where those bounds cannot rule them out.
	for _, fam := range r.families {
		sibs := r.siblings[fam.det]
		if fam.ref == fam || len(sibs) == 0 || fam != sibs[0] {
			continue
		}
		a := fam.ref.argmaxM() - 1
		if a < 0 {
			a = 0
		}
		if !fam.cands[a].done {
			if r.evals >= r.budget {
				return nil
			}
			if err := r.evalCandidate(ctx, fam.cands[a]); err != nil {
				return err
			}
		}
		for {
			next := -1
			if best := fam.argmaxM(); true {
				lo, hi := fam.doneNeighbours(best)
				if lo == best && best > 0 {
					next = best - 1
				} else if hi == best && best < len(fam.cands)-1 {
					next = best + 1
				}
			}
			if next < 0 {
				// Peak bracketed; bracket the cost valley too. The left
				// edge is what matters: it certifies a cost floor for
				// every smaller-TIDS column, which is the bound that
				// prunes the expensive low-TIDS tail of the family.
				best := fam.argminC()
				if lo, _ := fam.doneNeighbours(best); lo == best && best > 0 {
					next = best - 1
				}
			}
			if next < 0 {
				break
			}
			if r.evals >= r.budget {
				return nil
			}
			if err := r.evalCandidate(ctx, fam.cands[next]); err != nil {
				return err
			}
		}
	}
	// Phase 4 — expected-improvement loop: evaluate the candidate whose
	// optimistic surrogate outcome would grow the dominated hypervolume
	// the most; stop when even the best optimistic outcome falls below
	// the improvement threshold.
	for r.evals < r.budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		best, bestGain := r.pickNext()
		if best == nil {
			return nil // every candidate evaluated
		}
		if bestGain <= r.opts.MinImprovement*r.fm.Hypervolume() {
			return nil // converged: nothing left that could matter
		}
		if err := r.evalCandidate(ctx, best); err != nil {
			return err
		}
	}
	return nil
}

// bracketFamily evaluates fam until its MTTSF peak and its Ĉtotal valley
// are each bracketed by done points on every side the grid allows,
// hill-climbing one column at a time from the running argmax (then
// argmin). On a cold family it starts from the grid midpoint; a seeded
// family resumes from whatever the cache already pinned down.
func (r *frontierRun) bracketFamily(ctx context.Context, fam *frontierFamily) error {
	anyDone := false
	for _, c := range fam.cands {
		if c.done {
			anyDone = true
			break
		}
	}
	if !anyDone {
		if r.evals >= r.budget {
			return nil
		}
		if err := r.evalCandidate(ctx, fam.cands[len(fam.cands)/2]); err != nil {
			return err
		}
	}
	for {
		next := -1
		if best := fam.argmaxM(); true {
			lo, hi := fam.doneNeighbours(best)
			if lo == best && best > 0 {
				next = best - 1
			} else if hi == best && best < len(fam.cands)-1 {
				next = best + 1
			}
		}
		if next < 0 {
			best := fam.argminC()
			lo, hi := fam.doneNeighbours(best)
			if lo == best && best > 0 {
				next = best - 1
			} else if hi == best && best < len(fam.cands)-1 {
				next = best + 1
			}
		}
		if next < 0 {
			return nil
		}
		if r.evals >= r.budget {
			return nil
		}
		if err := r.evalCandidate(ctx, fam.cands[next]); err != nil {
			return err
		}
	}
}

// argmaxM returns the position of the family's best evaluated MTTSF (0 if
// nothing is evaluated yet).
func (f *frontierFamily) argmaxM() int {
	best, bestM := 0, math.Inf(-1)
	for i, c := range f.cands {
		if c.done && c.mttsf > bestM {
			best, bestM = i, c.mttsf
		}
	}
	return best
}

// pickNext returns the unevaluated candidate with the largest optimistic
// hypervolume gain — redirected down the m ladder: if a smaller-m family
// of the same detection kind is also still contested at the chosen TIDS
// column, that candidate is evaluated first. Its result feeds the
// monotone-in-m and cross-m ratio bounds, which usually prune the
// larger-m cousins outright; picking the large-m candidate first (it
// always carries the loosest bounds, hence the biggest optimistic gain)
// would teach the surrogate nothing about it.
func (r *frontierRun) pickNext() (*frontierCandidate, float64) {
	var best *frontierCandidate
	var bestFam *frontierFamily
	bestI, bestGain := 0, math.Inf(-1)
	for _, fam := range r.families {
		for i, c := range fam.cands {
			if c.done {
				continue
			}
			gain := r.optimisticGain(fam, i)
			// Ties — typically the +Inf gains of still-unbounded
			// candidates — break toward the column nearest the reference
			// peak: evaluating there brackets the family's own peak
			// fastest, which is what turns the rest of the family finite.
			if gain > bestGain || (gain == bestGain && best != nil &&
				abs(i-fam.ref.argmaxM()) < abs(bestI-bestFam.ref.argmaxM())) {
				best, bestFam, bestI, bestGain = c, fam, i, gain
			}
		}
	}
	if best == nil {
		return nil, bestGain
	}
	for _, g := range r.siblings[bestFam.det] {
		if g.m >= bestFam.m || g.cands[bestI].done {
			continue
		}
		if gain := r.optimisticGain(g, bestI); gain > 0 {
			bestFam = g
			break
		}
	}
	// Slope redirect: when the winner sits on an uncharted run of columns
	// left of its family's peak, evaluate the rightmost contested column
	// of that run instead — its result one-sidedly caps every column to
	// its left (rising slope), where evaluating the winner itself would
	// teach nothing about its neighbours.
	if peak := bestFam.argmaxM(); bestI < peak {
		for j := peak - 1; j > bestI; j-- {
			if bestFam.cands[j].done {
				break
			}
			if r.optimisticGain(bestFam, j) > 0 {
				bestI = j
				break
			}
		}
	}
	return bestFam.cands[bestI], bestGain
}

// optimisticGain predicts the best frontier improvement candidate
// fam.cands[i] could plausibly deliver: the dominated-hypervolume gain of
// its optimistic outcome — an upper MTTSF bound paired with a lower
// Ĉtotal bound (see mUpper and cLower). The optimistic cost is clamped
// just below the highest cost observed so far, so a merely expensive
// candidate earns no reference-widening credit (widening inflates the
// hypervolume without improving the frontier); clamping only lowers the
// optimistic cost, so a genuinely non-dominated outcome always keeps a
// positive gain.
func (r *frontierRun) optimisticGain(fam *frontierFamily, i int) float64 {
	if r.slopeDominated(fam, i) {
		return 0
	}
	mOpt := r.mUpper(fam, i, 0)
	cOpt := r.cLower(fam, i, 0)
	if r.maxC > 0 {
		cOpt = math.Min(cOpt, r.maxC*(1-1e-9))
	}
	return r.fm.ImprovementIf(cOpt, mOpt)
}

// chainDepth caps the recursive m-ladder in mUpper/cLower: bounds for an
// unevaluated family may lean on a smaller-m family's bound, which may
// itself be derived. m grids are short, so a small cap loses nothing.
const chainDepth = 4

// mUpper bounds candidate fam.cands[i]'s MTTSF from above (fam's value if
// already evaluated), combining every applicable source:
//
//   - Unimodality: the done neighbours of the family's evaluated argmax
//     bracket the true peak, so outside that bracket the candidate cannot
//     beat the nearest done point on its side; inside, the bracket ends
//     cap it with a margin that widens with the bracket's span (the peak
//     can poke further above its flanks the wider they sit).
//   - Monotonicity in m: more IDS nodes never shorten the system
//     lifetime, so a larger-m family evaluated at the same TIDS caps the
//     candidate outright.
//   - Cross-m ratio: a smaller-m family's value (or bound, recursively)
//     at the same TIDS, scaled by the m-ratio observed at a column where
//     both families are evaluated (the ratio drifts slowly with TIDS near
//     the peak — margin 1.5%·κ), or by a flat saturation margin 4.5%·κ
//     when no shared column exists yet.
//   - Shape transfer from the reference family, corrected by the drift
//     bound (see drift).
//
// κ is opts.Optimism: margins scale with it, so a cautious caller can
// push the loop arbitrarily close to exhaustive enumeration.
func (r *frontierRun) mUpper(fam *frontierFamily, i int, depth int) float64 {
	if fam.cands[i].done {
		return fam.cands[i].mttsf
	}
	if depth >= chainDepth {
		return math.Inf(1)
	}
	k := r.opts.Optimism
	m := math.Inf(1)
	if lo, best, hi, ok := fam.peakBracket(); ok {
		nLo, nHi := fam.doneNeighbours(i)
		switch {
		case i <= lo && lo < best:
			// A done point left of the argmax certifies the peak sits
			// right of it, so everything at or left of lo is on the
			// rising slope — capped by the nearest done point above i
			// (which is at most lo, hence also on the rising slope).
			m = fam.cands[nHi].mttsf * (1 + 1e-6*k)
		case i >= hi && hi > best:
			m = fam.cands[nLo].mttsf * (1 + 1e-6*k)
		}
		// No unimodality claim for columns strictly inside the bracket:
		// the true peak lies somewhere in the open interval, and when the
		// bracket is wide (a sparsely pre-seeded cache can leave arbitrary
		// gaps around the done argmax) it can poke arbitrarily far above
		// both ends. Interior columns are bounded by the m-ladder below.
	}
	var adj *frontierFamily
	for _, g := range r.siblings[fam.det] {
		if g.m > fam.m && g.cands[i].done {
			m = math.Min(m, g.cands[i].mttsf)
		}
		if g.m < fam.m && (adj == nil || g.m > adj.m) {
			adj = g
		}
	}
	// Cross-m ratio bounds only hop one rung of the m ladder: the ratio
	// law is calibrated on single m steps, and a compound step (m5 -> m9
	// skipping m7) learned from arbitrarily seeded columns underestimates
	// the true ratio — and, being a min() partner, an unsound shortcut
	// destroys the sound chained bound. Larger gaps recurse rung by rung.
	if adj != nil {
		m = math.Min(m, r.crossM(fam, adj, i, depth))
	}
	return m
}

// crossM is the cross-m ratio bound of mUpper: fam's MTTSF at column i is
// at most the smaller-m family g's value (or recursive bound) there times
// a bound on the m-step ratio at that column (stepRatioAt). A step never
// observed close enough to the column makes no claim (Inf), which forces
// one evaluation of the larger family at its most contested column; that
// evaluation then anchors the learned ratio for every remaining column.
func (r *frontierRun) crossM(fam, g *frontierFamily, i, depth int) float64 {
	base := r.mUpper(g, i, depth+1)
	if math.IsInf(base, 1) {
		return base
	}
	return base * r.stepRatioAt(fam.det, g.m, fam.m, fam.cands[i].tids)
}

// stepRatioAt bounds the MTTSF ratio between families of m = hi and
// m = lo of detection kind det at TIDS t, using every column where that
// step has been observed in the same detection kind (how much marginal
// lifetime extra IDS nodes buy depends on the detection shape, so
// observations do not transfer across kinds — a warm cache can make a
// foreign kind's smaller ratio win the min and undercut the true value).
// The ratio's excess over 1 follows an empirical power law in
// TIDS: it roughly doubles per octave toward smaller TIDS — marginal IDS
// nodes matter most where detection work is dense — and shrinks toward
// larger TIDS. An observation at column a therefore bounds the excess at
// t by excess(a)·2^octaves toward lower TIDS and by excess(a) itself
// toward higher TIDS, each inflated by a k-scaled headroom for deviation
// from the law. The law is only certified locally: the doubling rate
// itself drifts slightly above 2 per octave, so the headroom absorbs it
// over at most ~2 octaves — observations further above t than that are
// skipped rather than extrapolated (this matters when a warm result cache
// seeds far-out columns that a cold run would never have evaluated).
// Every surviving observation yields a valid bound; the tightest wins.
func (r *frontierRun) stepRatioAt(det shapes.Kind, lo, hi int, t float64) float64 {
	k := r.opts.Optimism
	bound := math.Inf(1)
	for _, f := range r.families {
		if f.m != hi || f.det != det {
			continue
		}
		for _, g := range r.families {
			if g.m != lo || g.det != det {
				continue
			}
			for a := range f.cands {
				if !f.cands[a].done || !g.cands[a].done {
					continue
				}
				excess := f.cands[a].mttsf/g.cands[a].mttsf - 1
				if excess < 0 {
					excess = 0
				}
				if ta := f.cands[a].tids; ta > t && t > 0 {
					oct := math.Log2(ta / t)
					if oct > 2 {
						continue
					}
					excess *= math.Pow(2, oct)
				}
				bound = math.Min(bound, 1+excess*(1+0.25*k))
			}
		}
	}
	return bound
}

// cLower bounds candidate fam.cands[i]'s Ĉtotal from below (fam's value
// if already evaluated), combining:
//
//   - Monotonicity in m: more IDS nodes never come for free, so the
//     reference and any smaller-m family (evaluated or recursively
//     bounded) at the same TIDS floor the candidate's cost.
//   - Valley shape: within a family Ĉtotal falls then rises over TIDS;
//     outside the bracket around the evaluated argmin the candidate costs
//     at least the nearest done point on its side, inside at least the
//     cheaper bracket end minus a span-scaled dip margin.
//   - Monotone cost ratio: the family/reference cost ratio only shrinks
//     as TIDS grows (per-IDS-session overhead amortizes over longer
//     sessions), so the ratio observed at any evaluated column above i
//     already under-estimates the ratio at i.
func (r *frontierRun) cLower(fam *frontierFamily, i int, depth int) float64 {
	if fam.cands[i].done {
		return fam.cands[i].ctotal
	}
	if depth >= chainDepth {
		return 0
	}
	k := r.opts.Optimism
	c := 0.0
	if fam.ref != fam && fam.ref.cands[i].done {
		c = fam.ref.cands[i].ctotal
	}
	for _, g := range r.siblings[fam.det] {
		if g.m < fam.m {
			c = math.Max(c, r.cLower(g, i, depth+1))
		}
	}
	if lo, best, hi, ok := fam.valleyBracket(); ok {
		nLo, nHi := fam.doneNeighbours(i)
		switch {
		case i <= lo && lo < best:
			// A done point left of the argmin certifies the valley sits
			// right of it, so everything at or left of lo is on the
			// falling slope — floored by the nearest done point above i
			// (which is at most lo, hence also on the falling slope).
			c = math.Max(c, fam.cands[nHi].ctotal*(1-1e-6*k))
		case i >= hi && hi > best:
			c = math.Max(c, fam.cands[nLo].ctotal*(1-1e-6*k))
		}
		// As with mUpper's peak bracket, no claim for columns strictly
		// inside the bracket: a wide gap can hide an arbitrarily deep
		// valley, so interior floors come from the m-ladder above.
	}
	if fam.ref != fam && fam.ref.cands[i].done {
		ref := fam.ref.cands[i]
		for j, cd := range fam.cands {
			if !cd.done || !fam.ref.cands[j].done || j <= i {
				continue
			}
			c = math.Max(c, ref.ctotal*(cd.ctotal/fam.ref.cands[j].ctotal))
		}
	}
	return c
}

// slopeDominated reports whether candidate fam.cands[i] is certifiably
// dominated inside its own family: when i sits in a tail beyond both the
// peak bracket and the valley bracket on the same side, the slopes run
// against it — MTTSF strictly falls and Ĉtotal strictly rises walking
// outward — so the nearest done point toward the brackets beats the
// candidate on both axes at once and the candidate cannot be a frontier
// member. Unlike the learned ratio bounds this claim needs no margin and
// survives any cache-seeding pattern (it leans only on the certified
// brackets), and it is what lets whole grid tails go unevaluated even in
// the reference families.
func (r *frontierRun) slopeDominated(fam *frontierFamily, i int) bool {
	pLo, pBest, pHi, ok := fam.peakBracket()
	if !ok {
		return false
	}
	vLo, vBest, vHi, ok := fam.valleyBracket()
	if !ok {
		return false
	}
	lo, hi := fam.doneNeighbours(i)
	if hi != i && hi <= pLo && pLo < pBest && hi <= vLo && vLo < vBest {
		return true // left tail: rising MTTSF and falling cost up to the brackets
	}
	if lo != i && lo >= pHi && pHi > pBest && lo >= vHi && vHi > vBest {
		return true // right tail, mirrored
	}
	return false
}

// octaves is the log₂ distance between two TIDS columns — the natural
// span measure on the roughly geometric TIDS grid.
func octaves(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 1
	}
	return math.Abs(math.Log2(b / a))
}

// peakBracket returns the done indices bracketing the family's MTTSF
// peak: the done neighbours of the evaluated argmax. By unimodality the
// true peak lies inside the open bracket, so candidates at or outside
// either end are capped by that end's value; interior candidates are
// capped by the ends plus a span-scaled overshoot margin.
func (f *frontierFamily) argminC() int {
	best, bestC := 0, math.Inf(1)
	for i, c := range f.cands {
		if c.done && c.ctotal < bestC {
			best, bestC = i, c.ctotal
		}
	}
	return best
}
func (f *frontierFamily) peakBracket() (lo, best, hi int, ok bool) {
	best = -1
	for i, c := range f.cands {
		if c.done && (best < 0 || c.mttsf > f.cands[best].mttsf) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, 0, false
	}
	lo, hi = f.doneNeighbours(best)
	return lo, best, hi, true
}

// valleyBracket is peakBracket's dual for the Ĉtotal valley.
func (f *frontierFamily) valleyBracket() (lo, best, hi int, ok bool) {
	best = -1
	for i, c := range f.cands {
		if c.done && (best < 0 || c.ctotal < f.cands[best].ctotal) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, 0, false
	}
	lo, hi = f.doneNeighbours(best)
	return lo, best, hi, true
}

// doneNeighbours returns the nearest done indices on each side of i (i
// itself when a side has none).
func (f *frontierFamily) doneNeighbours(i int) (lo, hi int) {
	lo, hi = i, i
	for j := i - 1; j >= 0; j-- {
		if f.cands[j].done {
			lo = j
			break
		}
	}
	for j := i + 1; j < len(f.cands); j++ {
		if f.cands[j].done {
			hi = j
			break
		}
	}
	return lo, hi
}

// evalCandidate charges one fresh evaluation (through the gate, on the
// engine's pooled miss path) and folds the outcome in.
func (r *frontierRun) evalCandidate(ctx context.Context, c *frontierCandidate) error {
	if res, ok := r.e.Cached(c.cfg); ok { // raced in since seeding: free
		return r.record(c, res.MTTSF, res.Ctotal)
	}
	if r.opts.Eval != nil {
		res, err := r.opts.Eval(ctx, c.cfg)
		if err != nil {
			return fmt.Errorf("engine: frontier (m=%d TIDS=%v detection=%v): %w", c.m, c.tids, c.det, err)
		}
		r.evals++
		return r.record(c, res.MTTSF, res.Ctotal)
	}
	release := func() {}
	if r.opts.Gate != nil {
		rel, err := r.opts.Gate(ctx)
		if err != nil {
			return err
		}
		release = rel
	}
	res, err := r.e.EvalContext(ctx, c.cfg)
	release()
	if err != nil {
		return fmt.Errorf("engine: frontier (m=%d TIDS=%v detection=%v): %w", c.m, c.tids, c.det, err)
	}
	r.evals++
	return r.record(c, res.MTTSF, res.Ctotal)
}

// record marks a candidate evaluated, inserts it into the frontier, and
// emits a revision when the frontier changed.
func (r *frontierRun) record(c *frontierCandidate, mttsf, ctotal float64) error {
	c.mttsf, c.ctotal, c.done = mttsf, ctotal, true
	r.maxC = math.Max(r.maxC, ctotal)
	d := r.fm.Insert(core.DesignPoint{
		M: c.m, TIDS: c.tids, Detection: c.det, MTTSF: mttsf, Ctotal: ctotal,
	})
	if !d.Accepted || r.emit == nil {
		return nil
	}
	p := d.Point
	return r.emit(FrontierRevision{
		Generation:  d.Generation,
		Point:       &p,
		Evicted:     d.Evicted,
		Hypervolume: d.Hypervolume,
		Improvement: d.Improvement,
		Evals:       r.evals,
		Candidates:  r.total,
	})
}

// finish emits the terminal revision.
func (r *frontierRun) finish() error {
	if r.emit == nil {
		return nil
	}
	return r.emit(FrontierRevision{
		Generation:  r.fm.Generation(),
		Hypervolume: r.fm.Hypervolume(),
		Evals:       r.evals,
		Candidates:  r.total,
		Done:        true,
		Frontier:    r.fm.Frontier(),
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
