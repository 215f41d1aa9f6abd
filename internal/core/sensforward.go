package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Forward sensitivities. The sojourn system is A y = b with A = Q_TT^T and
// b = -e_init; b does not depend on the model parameters, so
// differentiating with respect to a parameter θ gives the forward system
//
//	A · (∂y/∂θ) = -(∂A/∂θ) · y
//
// — one extra linear solve per parameter on the *same* matrix, cached
// sub-generator transpose, and (frozen) ILU(0) factors as the sojourn
// solve itself. ∂A/∂θ is assembled edge-wise: each reachability edge's
// rate is a smooth function of θ, differentiated by central differences of
// the rates of two perturbed model builds, one rate-function call per
// state each (no re-exploration — the graph is structurally invariant
// under a rate-only perturbation).
// dMTTSF/dθ is then the sum of ∂y/∂θ, exactly as MTTSF is the sum of y.

// ParamSensitivity is one parameter's forward sensitivity: the derivative
// of MTTSF with respect to the parameter, and the dimensionless elasticity
// (relative response per relative parameter change) it implies.
type ParamSensitivity struct {
	// Param is the short parameter key ("tids", "lambda_c", ...; see
	// SensitivityParams).
	Param string
	// Base is the parameter's value at the evaluated configuration.
	Base float64
	// DMTTSF is dMTTSF/dθ in seconds per parameter unit.
	DMTTSF float64
	// Elasticity is DMTTSF · θ / MTTSF.
	Elasticity float64
}

// SensitivityParams lists the short keys of the parameters forward
// sensitivities can differentiate by, in canonical order.
func SensitivityParams() []string {
	keys := make([]string, len(perturbable))
	for i, p := range perturbable {
		keys[i] = p.key
	}
	return keys
}

// sensFDRel is the relative step of the central difference that
// differentiates the edge rates. Rates are smooth (piecewise
// analytic) in every perturbable parameter, so truncation error is
// O(h²) ≈ 1e-12 relative while float64 roundoff stays near 1e-10 —
// both far below the gradients' use in search and reporting.
const sensFDRel = 1e-6

// ForwardSensitivities computes dMTTSF/dθ for the named parameters (nil
// or empty = all of SensitivityParams) from p's already-computed solution:
// one extra preconditioned solve per parameter, reusing the chain's cached
// matrix and factors. Parameters whose base value is zero, or whose ±h
// perturbation leaves the valid domain, are skipped.
func (p *Prepared) ForwardSensitivities(params []string) ([]ParamSensitivity, error) {
	sol, err := p.Solution()
	if err != nil {
		return nil, err
	}
	y := sol.SojournTimes()
	mttsf := y.Sum()
	if len(params) == 0 {
		params = SensitivityParams()
	}
	cfg := p.Model.Config
	out := make([]ParamSensitivity, 0, len(params))
	for _, key := range params {
		pp, err := perturbableByKey(key)
		if err != nil {
			return nil, err
		}
		theta := pp.get(&cfg)
		if theta == 0 {
			continue
		}
		h := sensFDRel * math.Abs(theta)
		up, down := cfg, cfg
		pp.set(&up, theta+h)
		pp.set(&down, theta-h)
		if up.Validate() != nil || down.Validate() != nil {
			continue // boundary of the valid domain; no two-sided derivative
		}
		mUp, err := BuildModel(up)
		if err != nil {
			return nil, fmt.Errorf("core: forward sensitivity of %s: %w", key, err)
		}
		mDown, err := BuildModel(down)
		if err != nil {
			return nil, fmt.Errorf("core: forward sensitivity of %s: %w", key, err)
		}
		dy, err := p.forwardSolve(y, mUp, mDown, 2*h)
		if err != nil {
			return nil, fmt.Errorf("core: forward sensitivity of %s: %w", key, err)
		}
		d := dy.Sum()
		out = append(out, ParamSensitivity{
			Param:      key,
			Base:       theta,
			DMTTSF:     d,
			Elasticity: d * theta / mttsf,
		})
	}
	return out, nil
}

// perturbableByKey resolves a short parameter key against the shared
// perturbable table.
func perturbableByKey(key string) (*perturbableParam, error) {
	for i := range perturbable {
		if perturbable[i].key == key {
			return &perturbable[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown sensitivity parameter %q (have %v)", key, SensitivityParams())
}

// forwardSolve assembles the forward right-hand side -(∂A/∂θ)·y edge-wise
// from the two perturbed models' rates (span is the full step between
// them) and solves the directional system on p's cached chain.
func (p *Prepared) forwardSolve(y linalg.Vector, mUp, mDown *Model, span float64) (linalg.Vector, error) {
	g, c := p.Graph, p.Chain
	nt := len(mUp.Net.Transitions())
	if nt != len(mDown.Net.Transitions()) || g.Net.NumPlaces() != mUp.Net.NumPlaces() {
		return nil, fmt.Errorf("core: perturbed models differ structurally")
	}
	up, down := make([]float64, nt), make([]float64, nt)
	rhs := linalg.NewVector(c.NumStates())
	for j, mk := range g.States {
		yj := y[j]
		if yj == 0 || c.IsAbsorbing(j) {
			continue
		}
		mUp.rates(mk, up)
		mDown.rates(mk, down)
		for _, e := range g.Edges[j] {
			if e.To == j {
				continue
			}
			dr := (up[e.Transition] - down[e.Transition]) / span
			if dr == 0 {
				continue
			}
			// Row j of ∂Q gains +dr at column e.To and -dr on the
			// diagonal; transposed and restricted to transient states:
			if !c.IsAbsorbing(e.To) {
				rhs[e.To] -= dr * yj
			}
			rhs[j] += dr * yj
		}
	}
	return c.SolveSubTT(rhs)
}

// GradOptimum is the result of a gradient-guided TIDS search.
type GradOptimum struct {
	// TIDS is the located optimum.
	TIDS float64
	// Result is the full evaluation at the optimum, with Sensitivities
	// attached.
	Result *Result
	// Evals counts the gradient evaluations the search spent — compare
	// against the size of the dense grid an enumeration would sweep.
	Evals int
}

// GradientOptimalTIDS locates the MTTSF-maximizing detection interval in
// [lo, hi] by bisecting the sign of dMTTSF/dTIDS in log space — the
// paper's MTTSF(TIDS) curves are unimodal, so the gradient's sign change
// brackets the optimum. Each gradient costs one patched re-solve plus one
// forward solve through an incremental PreparedDelta session anchored on
// the first point, instead of a full prepare per probe. tol is the
// relative bracket width to stop at (0 selects 1%).
func GradientOptimalTIDS(cfg Config, lo, hi, tol float64) (*GradOptimum, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("core: gradient search needs 0 < lo < hi, got [%v, %v]", lo, hi)
	}
	if tol <= 0 {
		tol = 0.01
	}
	evals := 0
	var pd *PreparedDelta
	prepAt := func(tids float64) (*Prepared, error) {
		c := cfg
		c.TIDS = tids
		if pd != nil {
			if p, err := pd.Prepared(c); err == nil {
				return p, nil
			}
			// Structural fallback or hard solve failure: re-anchor below.
			pd = nil
		}
		p, err := Prepare(c)
		if err != nil {
			return nil, err
		}
		if npd, err := NewPreparedDelta(p); err == nil {
			pd = npd
		}
		return p, nil
	}
	gradAt := func(tids float64) (float64, error) {
		evals++
		p, err := prepAt(tids)
		if err != nil {
			return 0, err
		}
		sens, err := p.ForwardSensitivities([]string{"tids"})
		if err != nil {
			return 0, err
		}
		if len(sens) == 0 {
			return 0, fmt.Errorf("core: TIDS sensitivity unavailable at %v", tids)
		}
		return sens[0].DMTTSF, nil
	}

	gLo, err := gradAt(lo)
	if err != nil {
		return nil, err
	}
	best := lo
	if gLo > 0 {
		gHi, err := gradAt(hi)
		if err != nil {
			return nil, err
		}
		if gHi >= 0 {
			best = hi // increasing across the whole bracket
		} else {
			a, b := lo, hi
			for b/a > 1+tol {
				mid := math.Sqrt(a * b)
				g, err := gradAt(mid)
				if err != nil {
					return nil, err
				}
				if g > 0 {
					a = mid
				} else {
					b = mid
				}
			}
			best = math.Sqrt(a * b)
		}
	}

	p, err := prepAt(best)
	if err != nil {
		return nil, err
	}
	res, err := p.Analyze()
	if err != nil {
		return nil, err
	}
	sens, err := p.ForwardSensitivities(nil)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Config.TIDS = best
	out.Sensitivities = sens
	return &GradOptimum{TIDS: best, Result: &out, Evals: evals}, nil
}
